package fsimage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"

	"impressions/internal/content"
	"impressions/internal/stats"
)

// MaterializeStreamLabel is the fork label of the RNG stream that drives
// content generation; per-file streams are SplitN(fileID) children of it.
// Exported so the distributed plan can record the stream key explicitly.
const MaterializeStreamLabel = "materialize"

// ContentWriter generates file content under the frozen per-file stream
// contract — the content seed forked by MaterializeStreamLabel, split by
// file ID, feeding the registry's generator for the file's extension — and
// optionally taps it into a SHA-256. It is the one place every sink (VFS
// file, tar body, squashfs data block, digest-only pass) gets its bytes
// from, so all of them see the same content for the same file. A writer is
// not safe for concurrent use; concurrent callers each build their own
// (streams are keyed by file ID, so writers over one seed agree byte for
// byte).
type ContentWriter struct {
	reg  *content.Registry
	base *stats.RNG
	tap  sha256Tap
	sum  [sha256.Size]byte
}

// sha256Tap tees generated bytes into a hash on their way to dst (nil dst
// hashes only). It lives inside the ContentWriter, so tapping a file costs
// no allocation.
type sha256Tap struct {
	dst io.Writer
	h   hash.Hash
}

func (t *sha256Tap) Write(p []byte) (int, error) {
	t.h.Write(p)
	if t.dst == nil {
		return len(p), nil
	}
	return t.dst.Write(p)
}

// NewContentWriter returns a writer for the given content registry (nil:
// the default content policy) and content seed.
func NewContentWriter(reg *content.Registry, seed int64) *ContentWriter {
	if reg == nil {
		reg = content.NewRegistry(content.KindDefault)
	}
	return &ContentWriter{
		reg:  reg,
		base: stats.NewRNG(seed).Fork(MaterializeStreamLabel),
		tap:  sha256Tap{h: sha256.New()},
	}
}

// Generate writes exactly f.Size bytes of f's content onto dst.
func (c *ContentWriter) Generate(dst io.Writer, f File) error {
	// Each file owns a stream keyed by its ID: content depends only on the
	// seed and the file, never on write order, worker, process or sink.
	if err := c.reg.ForExtension(f.Ext).Generate(dst, f.Size, c.base.SplitN(uint64(f.ID))); err != nil {
		return fmt.Errorf("fsimage: generating content of file %d: %w", f.ID, err)
	}
	return nil
}

// GenerateSum writes f's content onto dst like Generate and returns the
// SHA-256 (hex) of exactly those bytes. A nil dst only hashes.
func (c *ContentWriter) GenerateSum(dst io.Writer, f File) (string, error) {
	c.tap.dst = dst
	c.tap.h.Reset()
	err := c.Generate(&c.tap, f)
	c.tap.dst = nil
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(c.tap.h.Sum(c.sum[:0])), nil
}
