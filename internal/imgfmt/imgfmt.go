// Package imgfmt serializes the canonical image record stream straight
// into image files — archive and filesystem formats — with purely
// sequential writes: no kernel VFS round-trips, no mkfs, no root.
//
// Where the VFS materializer (fsimage.Image.Materialize) pays one
// open/write/close per file (so a 100k-small-file image is syscall-bound),
// these sinks run at content-engine speed: the zero-alloc generators write
// file bodies directly into the image stream. Two backends ship:
//
//   - TarSink streams a POSIX tar (archive/tar, USTAR with PAX fallback for
//     long names) whose bytes are a pure function of (spec, seed, Options):
//     entry order is the canonical record order (directories in ID order,
//     then files in ID order) and all VFS-dependent metadata — mtime, uid,
//     gid, permissions — is fixed by Options, so the stream is
//     byte-identical at any parallelism. WriteSegment emits one shard's
//     sub-stream as a truncated-at-EOF tar segment, and Stitcher merges
//     per-shard segments back into the identical monolithic archive, so a
//     distributed fleet can produce one tar without any node writing
//     O(image) files.
//
//   - SquashfsSink writes an uncompressed squashfs v4 image — superblock,
//     data blocks, inode/directory/id tables — that mounts directly with
//     `mount -o loop` (or any squashfs reader), built from the compact
//     directory tree plus per-file integer columns. ReadSquashfsTree is the
//     matching in-repo reader used by tests (and anyone without mount
//     privileges) to walk the produced image.
//
// Determinism: every file body comes from fsimage.ContentWriter, the one
// owner of the frozen per-file content stream contract, so a tar body, a
// squashfs data block, a VFS file, and a digest pass all see the same
// bytes for the same file.
package imgfmt

import (
	"context"
	"io"
	"os"
	"time"

	"impressions/internal/content"
	"impressions/internal/fsimage"
)

// DefaultModTime is the fixed timestamp stamped on every entry when
// Options.ModTime is zero: 2009-02-06 00:00:00 UTC, the FAST '09 week.
// Image bytes must be a pure function of (spec, seed), so the build's wall
// clock can never leak into an archive.
var DefaultModTime = time.Unix(1233878400, 0).UTC()

// Options fixes everything about an image file that a kernel would
// otherwise invent — ownership, permissions, timestamps — plus the content
// engine configuration. The zero value is usable; every field has the same
// default the VFS materializer uses.
type Options struct {
	// Registry supplies per-extension content generators (nil: the default
	// content policy).
	Registry *content.Registry
	// Seed drives content generation. Sinks have no image to default from,
	// so callers pass the plan or spec seed explicitly.
	Seed int64
	// MetadataOnly writes zero bytes instead of generated content. Entries
	// keep their full size (the archive counterpart of a truncated VFS
	// file), and no content digests are produced.
	MetadataOnly bool
	// DirPerm and FilePerm are the recorded permissions (defaults 0755 and
	// 0644).
	DirPerm  os.FileMode
	FilePerm os.FileMode
	// UID and GID are the recorded owner (default 0:0 — images mount and
	// extract without any host-user dependence).
	UID int
	GID int
	// ModTime is the fixed timestamp for every entry (zero: DefaultModTime).
	ModTime time.Time
	// Context, when non-nil, cancels the serialization: the per-record
	// loops poll it and abort with its error, leaving a truncated image.
	Context context.Context
	// OnDigest, when non-nil, observes each file's content SHA-256 (hex) as
	// it is written (the ContentWriter's tap), so archive workers seal
	// ordinary manifests. Not called with MetadataOnly.
	OnDigest func(f fsimage.File, sha256 string)
}

// ctx returns the cancellation context, defaulting to context.Background().
func (o Options) ctx() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}

// withDefaults fills in the option defaults.
func (o Options) withDefaults() Options {
	if o.Registry == nil {
		o.Registry = content.NewRegistry(content.KindDefault)
	}
	if o.DirPerm == 0 {
		o.DirPerm = 0o755
	}
	if o.FilePerm == 0 {
		o.FilePerm = 0o644
	}
	if o.ModTime.IsZero() {
		o.ModTime = DefaultModTime
	}
	return o
}

// zeroBlock feeds MetadataOnly entry bodies and padding.
var zeroBlock [32 * 1024]byte

// writeBody writes f's body onto dst: f.Size zero bytes with MetadataOnly,
// otherwise the file's generated content from cw, whose digest goes to
// OnDigest when set.
func (o Options) writeBody(cw *fsimage.ContentWriter, dst io.Writer, f fsimage.File) error {
	if o.MetadataOnly {
		for remaining := f.Size; remaining > 0; {
			n := min(remaining, int64(len(zeroBlock)))
			if _, err := dst.Write(zeroBlock[:n]); err != nil {
				return err
			}
			remaining -= n
		}
		return nil
	}
	if o.OnDigest == nil {
		return cw.Generate(dst, f)
	}
	sum, err := cw.GenerateSum(dst, f)
	if err != nil {
		return err
	}
	o.OnDigest(f, sum)
	return nil
}
