package fsimage

import (
	"fmt"
	"iter"
	"strings"

	"impressions/internal/namespace"
)

// The streaming record API decouples producing an image's metadata from
// retaining it. An image is, on the wire and in every consumer that doesn't
// need random access, just a canonical record stream: every directory
// (DirRecord) in ID order, then every file (File) in ID order. Producers
// push that stream into a RecordSink; what the sink does with it — buffer it
// into chunks (ChunkEncoder), fold it into the canonical digest
// (DigestBuilder), accumulate histograms (ImageStats), serialize it as an
// image file (imgfmt's TarSink, SquashfsSink), or retain it whole
// (ImageSink, then Materialize to disk) — is the consumer's choice. The in-memory Image is one retained-sink implementation, kept for
// small images, random access, and the library API; it is no longer the
// mandatory interchange format, so pipelines that only stream hold O(chunk)
// file records regardless of image size.

// RecordSink consumes an image metadata stream in canonical order: every
// directory record in ascending ID order (the root first), then every file
// record in ascending ID order. A sink returning an error aborts the stream.
type RecordSink interface {
	AddDir(DirRecord) error
	AddFile(File) error
}

// RecordSource is anything that can replay an image's metadata records into
// a sink in canonical order. *Image implements it (retained replay), as does
// core's columnar metadata pass (generation-fused replay).
type RecordSource interface {
	StreamRecords(RecordSink) error
}

// StreamRecords replays the image's metadata into sink in canonical order,
// making *Image a RecordSource.
func (img *Image) StreamRecords(sink RecordSink) error {
	for i := range img.Tree.Dirs {
		d := &img.Tree.Dirs[i]
		if err := sink.AddDir(DirRecord{ID: d.ID, Parent: d.Parent, Name: d.Name, Special: d.Special, Bias: d.Bias}); err != nil {
			return err
		}
	}
	for i := range img.Files {
		if err := sink.AddFile(img.Files[i]); err != nil {
			return err
		}
	}
	return nil
}

// DirRecords returns an iterator over the image's directory records in ID
// order, the iter.Seq view of the stream's first half.
func (img *Image) DirRecords() iter.Seq[DirRecord] {
	return func(yield func(DirRecord) bool) {
		for i := range img.Tree.Dirs {
			d := &img.Tree.Dirs[i]
			if !yield(DirRecord{ID: d.ID, Parent: d.Parent, Name: d.Name, Special: d.Special, Bias: d.Bias}) {
				return
			}
		}
	}
}

// FileRecords returns an iterator over the image's file records in ID order,
// the iter.Seq view of the stream's second half.
func (img *Image) FileRecords() iter.Seq[File] {
	return func(yield func(File) bool) {
		for i := range img.Files {
			if !yield(img.Files[i]) {
				return
			}
		}
	}
}

// StreamSeqs replays a record stream given as two iterators (dirs, then
// files) into a sink — the bridge from iter.Seq producers to RecordSinks.
func StreamSeqs(dirs iter.Seq[DirRecord], files iter.Seq[File], sink RecordSink) error {
	for d := range dirs {
		if err := sink.AddDir(d); err != nil {
			return err
		}
	}
	for f := range files {
		if err := sink.AddFile(f); err != nil {
			return err
		}
	}
	return nil
}

// MultiSink fans one record stream out to several sinks; the first error
// wins. It lets a single generation pass feed, say, a chunk encoder and a
// stats accumulator at once.
func MultiSink(sinks ...RecordSink) RecordSink { return multiSink(sinks) }

type multiSink []RecordSink

func (m multiSink) AddDir(d DirRecord) error {
	for _, s := range m {
		if err := s.AddDir(d); err != nil {
			return err
		}
	}
	return nil
}

func (m multiSink) AddFile(f File) error {
	for _, s := range m {
		if err := s.AddFile(f); err != nil {
			return err
		}
	}
	return nil
}

// TreeSink is the compact structural core shared by every streaming
// consumer that needs paths or validation but not the file records
// themselves: it rebuilds the directory tree (O(dirs), with per-directory
// file counters restored as file records pass by), validates that the
// stream is canonical — dense ascending IDs, known parents, the root first,
// non-negative sizes, consistent depths, legal names — and hands each file
// record to an optional callback instead of retaining it.
type TreeSink struct {
	// OnFile, when non-nil, observes every validated file record.
	OnFile func(File) error

	tree       *namespace.Tree
	nextFileID int
	totalBytes int64
}

// NewTreeSink returns a sink that rebuilds the directory tree and forwards
// validated file records to onFile (which may be nil).
func NewTreeSink(onFile func(File) error) *TreeSink {
	return &TreeSink{OnFile: onFile}
}

// AddDir applies the next directory record.
func (s *TreeSink) AddDir(d DirRecord) error {
	if s.nextFileID > 0 {
		return fmt.Errorf("fsimage: directory %d arrived after the file stream began (%w)", d.ID, ErrManifestIntegrity)
	}
	if s.tree == nil {
		if d.ID != 0 {
			return fmt.Errorf("fsimage: metadata stream begins with directory %d, want the root (0) (%w)", d.ID, ErrManifestIntegrity)
		}
		s.tree = namespace.GenerateTree(nil, 1, namespace.ShapeFlat)
		s.tree.Dirs[0].Name = d.Name
		s.tree.Dirs[0].Special = d.Special
		s.tree.Dirs[0].Bias = d.Bias
		return nil
	}
	if d.Parent < 0 || d.Parent >= s.tree.Len() {
		return fmt.Errorf("fsimage: directory %d has invalid parent %d (%w)", d.ID, d.Parent, ErrManifestIntegrity)
	}
	id := s.tree.AddDir(d.Parent)
	if id != d.ID {
		return fmt.Errorf("fsimage: directory IDs are not dense (got %d want %d) (%w)", id, d.ID, ErrManifestIntegrity)
	}
	s.tree.Dirs[id].Name = d.Name
	s.tree.Dirs[id].Special = d.Special
	s.tree.Dirs[id].Bias = d.Bias
	return nil
}

// AddFile validates the next file record, restores the containing
// directory's counters, and forwards the record to OnFile.
func (s *TreeSink) AddFile(f File) error {
	if s.tree == nil {
		return fmt.Errorf("fsimage: file %d arrived before any directory record (%w)", f.ID, ErrManifestIntegrity)
	}
	if f.ID != s.nextFileID {
		return fmt.Errorf("fsimage: file IDs are not dense (got %d want %d) (%w)", f.ID, s.nextFileID, ErrManifestIntegrity)
	}
	if f.DirID < 0 || f.DirID >= s.tree.Len() {
		return fmt.Errorf("fsimage: file %d references unknown directory %d (%w)", f.ID, f.DirID, ErrManifestIntegrity)
	}
	if f.Size < 0 {
		return fmt.Errorf("fsimage: file %q has negative size %d (%w)", f.Name, f.Size, ErrManifestIntegrity)
	}
	if wantDepth := s.tree.Dirs[f.DirID].Depth + 1; f.Depth != wantDepth {
		return fmt.Errorf("fsimage: file %q depth %d does not match directory depth %d (%w)", f.Name, f.Depth, wantDepth, ErrManifestIntegrity)
	}
	if f.Name == "" || strings.ContainsAny(f.Name, "/\x00") {
		return fmt.Errorf("fsimage: file %d has invalid name %q (%w)", f.ID, f.Name, ErrManifestIntegrity)
	}
	s.nextFileID++
	s.totalBytes += f.Size
	s.tree.Dirs[f.DirID].FileCount++
	s.tree.Dirs[f.DirID].Bytes += f.Size
	if s.OnFile != nil {
		return s.OnFile(f)
	}
	return nil
}

// Tree returns the directory tree rebuilt so far (nil before the root
// record arrives).
func (s *TreeSink) Tree() *namespace.Tree { return s.tree }

// DirCount returns the number of directory records applied.
func (s *TreeSink) DirCount() int {
	if s.tree == nil {
		return 0
	}
	return s.tree.Len()
}

// FileCount returns the number of file records applied.
func (s *TreeSink) FileCount() int { return s.nextFileID }

// TotalBytes returns the byte total of the file records applied.
func (s *TreeSink) TotalBytes() int64 { return s.totalBytes }

// ImageSink is the retained RecordSink: it rebuilds a complete in-memory
// Image from the stream. It is how the whole-image Decode, the chunked
// ImageBuilder, and any streamed pipeline that ultimately wants random
// access all materialize their records.
type ImageSink struct {
	ts   TreeSink
	img  *Image
	spec Spec
}

// NewImageSink starts a retained sink; the finished image carries spec.
func NewImageSink(spec Spec) *ImageSink {
	s := &ImageSink{spec: spec}
	s.ts.OnFile = func(f File) error {
		s.img.Files = append(s.img.Files, f)
		return nil
	}
	return s
}

// AddDir applies the next directory record.
func (s *ImageSink) AddDir(d DirRecord) error {
	if err := s.ts.AddDir(d); err != nil {
		return err
	}
	if s.img == nil {
		s.img = New(s.ts.Tree())
	}
	return nil
}

// AddFile applies the next file record.
func (s *ImageSink) AddFile(f File) error { return s.ts.AddFile(f) }

// Image validates and returns the assembled image.
func (s *ImageSink) Image() (*Image, error) {
	if s.img == nil {
		return nil, fmt.Errorf("fsimage: decoded image has no directories")
	}
	if err := s.img.Validate(); err != nil {
		return nil, err
	}
	s.img.Spec = s.spec
	return s.img, nil
}
