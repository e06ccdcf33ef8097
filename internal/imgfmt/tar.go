package imgfmt

import (
	"archive/tar"
	"bufio"
	"context"
	"fmt"
	"io"
	"io/fs"

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// tarWriter is the serialization core shared by every tar-producing path —
// the monolithic TarSink, the per-shard WriteSegment, and the Stitcher. All
// three build entry names and headers through the same code, which is what
// makes "segment-stitched equals monolithic" true byte for byte, not just
// semantically.
type tarWriter struct {
	tw      *tar.Writer
	bw      *bufio.Writer
	opts    Options
	ctx     context.Context
	cw      *fsimage.ContentWriter
	pathBuf []byte
	written int64
}

func newTarWriter(w io.Writer, opts Options) *tarWriter {
	opts = opts.withDefaults()
	bw := bufio.NewWriterSize(w, 64*1024)
	return &tarWriter{
		tw:   tar.NewWriter(bw),
		bw:   bw,
		opts: opts,
		ctx:  opts.ctx(),
		cw:   fsimage.NewContentWriter(opts.Registry, opts.Seed),
	}
}

// dirEntryName builds the canonical archive name of a directory: its
// slash path with a trailing slash.
func (t *tarWriter) dirEntryName(tree *namespace.Tree, id int) string {
	t.pathBuf = tree.AppendPath(t.pathBuf[:0], id)
	t.pathBuf = append(t.pathBuf, '/')
	return string(t.pathBuf)
}

// fileEntryName builds the canonical archive name of a file record.
func (t *tarWriter) fileEntryName(tree *namespace.Tree, f fsimage.File) string {
	t.pathBuf = tree.AppendPath(t.pathBuf[:0], f.DirID)
	if len(t.pathBuf) > 0 {
		t.pathBuf = append(t.pathBuf, '/')
	}
	t.pathBuf = append(t.pathBuf, f.Name...)
	return string(t.pathBuf)
}

// writeDirHeader emits one directory entry (nothing for the image root —
// the extraction root stands in for it) and returns the entry name.
func (t *tarWriter) writeDirHeader(tree *namespace.Tree, id int) (string, error) {
	if err := t.ctx.Err(); err != nil {
		return "", err
	}
	if id == 0 {
		return "", nil
	}
	name := t.dirEntryName(tree, id)
	hdr := tar.Header{
		Typeflag: tar.TypeDir,
		Name:     name,
		Mode:     int64(t.opts.DirPerm & fs.ModePerm),
		Uid:      t.opts.UID,
		Gid:      t.opts.GID,
		ModTime:  t.opts.ModTime,
	}
	if err := t.tw.WriteHeader(&hdr); err != nil {
		return "", fmt.Errorf("imgfmt: writing tar header for %q: %w", name, err)
	}
	return name, nil
}

// writeFileHeader emits one file entry's header and returns the entry name;
// the caller supplies exactly f.Size body bytes (generated or copied).
func (t *tarWriter) writeFileHeader(tree *namespace.Tree, f fsimage.File) (string, error) {
	if err := t.ctx.Err(); err != nil {
		return "", err
	}
	name := t.fileEntryName(tree, f)
	hdr := tar.Header{
		Typeflag: tar.TypeReg,
		Name:     name,
		Size:     f.Size,
		Mode:     int64(t.opts.FilePerm & fs.ModePerm),
		Uid:      t.opts.UID,
		Gid:      t.opts.GID,
		ModTime:  t.opts.ModTime,
	}
	if err := t.tw.WriteHeader(&hdr); err != nil {
		return "", fmt.Errorf("imgfmt: writing tar header for %q: %w", name, err)
	}
	return name, nil
}

// writeFileBody generates one file's content straight into the archive —
// zero bytes with MetadataOnly — and reports its digest to OnDigest.
func (t *tarWriter) writeFileBody(f fsimage.File) error {
	if err := t.opts.writeBody(t.cw, t.tw, f); err != nil {
		return fmt.Errorf("imgfmt: writing tar body for file %d: %w", f.ID, err)
	}
	t.written += f.Size
	return nil
}

// TarSink is the streaming tar materializer: a RecordSink that serializes
// the canonical record stream into one POSIX tar archive with purely
// sequential writes. Close writes the end-of-archive trailer; the emitted
// bytes are a pure function of the record stream and Options.
type TarSink struct {
	t  *tarWriter
	ts fsimage.TreeSink
}

// NewTarSink starts a tar serialization onto w. opts.Seed must carry the
// content seed (there is no image to default from).
func NewTarSink(w io.Writer, opts Options) *TarSink {
	return &TarSink{t: newTarWriter(w, opts)}
}

// AddDir appends the next directory entry.
func (s *TarSink) AddDir(d fsimage.DirRecord) error {
	if err := s.ts.AddDir(d); err != nil {
		return err
	}
	_, err := s.t.writeDirHeader(s.ts.Tree(), d.ID)
	return err
}

// AddFile appends the next file entry, generating its content directly
// into the archive.
func (s *TarSink) AddFile(f fsimage.File) error {
	if err := s.ts.AddFile(f); err != nil {
		return err
	}
	if _, err := s.t.writeFileHeader(s.ts.Tree(), f); err != nil {
		return err
	}
	return s.t.writeFileBody(f)
}

// Close writes the tar trailer and flushes. The sink must not be used
// afterwards.
func (s *TarSink) Close() error {
	if err := s.t.tw.Close(); err != nil {
		return fmt.Errorf("imgfmt: closing tar stream: %w", err)
	}
	if err := s.t.bw.Flush(); err != nil {
		return fmt.Errorf("imgfmt: flushing tar stream: %w", err)
	}
	return nil
}

// Written returns the content bytes written so far (header and padding
// overhead excluded — comparable to Materialize's return).
func (s *TarSink) Written() int64 { return s.t.written }

// WriteSegment writes one shard's records as a tar segment: the shard's
// directories (ascending IDs, the image root skipped) then its files
// (ascending ID order) — exactly the shard's sub-sequence of the canonical
// stream. The segment ends truncated at EOF, without the end-of-archive
// trailer: archive/tar reads it cleanly (io.EOF at the clean boundary),
// and Stitcher consumes segments in canonical order to reassemble the
// byte-identical monolithic archive. The tree must be the full image tree
// (shard paths reach through ancestors owned by other shards). Returns the
// content bytes written.
func WriteSegment(w io.Writer, tree *namespace.Tree, dirs []int, files []fsimage.File, opts Options) (int64, error) {
	t := newTarWriter(w, opts)
	for _, id := range dirs {
		if _, err := t.writeDirHeader(tree, id); err != nil {
			return t.written, err
		}
	}
	for _, f := range files {
		if _, err := t.writeFileHeader(tree, f); err != nil {
			return t.written, err
		}
		if err := t.writeFileBody(f); err != nil {
			return t.written, err
		}
	}
	// Flush pads the final entry to its block boundary without writing the
	// end-of-archive trailer — the truncated-at-EOF segment form.
	if err := t.tw.Flush(); err != nil {
		return t.written, fmt.Errorf("imgfmt: flushing tar segment: %w", err)
	}
	if err := t.bw.Flush(); err != nil {
		return t.written, fmt.Errorf("imgfmt: flushing tar segment: %w", err)
	}
	return t.written, nil
}
