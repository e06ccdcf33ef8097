package fsimage

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"testing"

	"impressions/internal/content"
	"impressions/internal/stats"
)

// TestStreamRecordsRoundTrip: replaying an image through the retained sink
// must reproduce it byte-for-byte (records, spec, tree counters).
func TestStreamRecordsRoundTrip(t *testing.T) {
	img := buildTestImage(t)
	sink := NewImageSink(img.Spec)
	if err := img.StreamRecords(sink); err != nil {
		t.Fatalf("StreamRecords: %v", err)
	}
	got, err := sink.Image()
	if err != nil {
		t.Fatalf("Image: %v", err)
	}
	var a, b bytes.Buffer
	if err := img.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("round-tripped image encodes differently")
	}
	for id := range img.Tree.Dirs {
		want, have := img.Tree.Dirs[id], got.Tree.Dirs[id]
		if want.FileCount != have.FileCount || want.Bytes != have.Bytes || want.SubdirCount != have.SubdirCount {
			t.Fatalf("dir %d counters diverge: %+v vs %+v", id, want, have)
		}
	}
}

// TestStreamSeqsMatchesStreamRecords: the iter.Seq bridge delivers the same
// stream as the direct replay.
func TestStreamSeqsMatchesStreamRecords(t *testing.T) {
	img := buildTestImage(t)
	direct := NewImageSink(img.Spec)
	if err := img.StreamRecords(direct); err != nil {
		t.Fatal(err)
	}
	viaSeq := NewImageSink(img.Spec)
	if err := StreamSeqs(img.DirRecords(), img.FileRecords(), viaSeq); err != nil {
		t.Fatal(err)
	}
	a, err := direct.Image()
	if err != nil {
		t.Fatal(err)
	}
	b, err := viaSeq.Image()
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	if err := a.Encode(&ab); err != nil {
		t.Fatal(err)
	}
	if err := b.Encode(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Error("iter.Seq stream diverges from direct stream")
	}
}

// TestTreeSinkRejectsBadStreams: the structural validation every streaming
// consumer inherits.
func TestTreeSinkRejectsBadStreams(t *testing.T) {
	dir := func(id, parent int) DirRecord { return DirRecord{ID: id, Parent: parent, Name: fmt.Sprintf("d%d", id)} }
	file := func(id, dirID, depth int, size int64, name string) File {
		return File{ID: id, Name: name, Size: size, DirID: dirID, Depth: depth}
	}
	cases := []struct {
		name string
		feed func(s *TreeSink) error
	}{
		{"non-root first", func(s *TreeSink) error { return s.AddDir(dir(1, 0)) }},
		{"sparse dir ids", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddDir(dir(2, 0))
		}},
		{"bad parent", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddDir(dir(1, 7))
		}},
		{"file before dirs", func(s *TreeSink) error { return s.AddFile(file(0, 0, 1, 1, "f")) }},
		{"dir after file", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			if err := s.AddFile(file(0, 0, 1, 1, "f")); err != nil {
				return err
			}
			return s.AddDir(dir(1, 0))
		}},
		{"sparse file ids", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddFile(file(3, 0, 1, 1, "f"))
		}},
		{"unknown dir", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddFile(file(0, 5, 1, 1, "f"))
		}},
		{"negative size", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddFile(file(0, 0, 1, -4, "f"))
		}},
		{"wrong depth", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddFile(file(0, 0, 3, 1, "f"))
		}},
		{"bad name", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddFile(file(0, 0, 1, 1, "a/b"))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.feed(NewTreeSink(nil)); err == nil {
				t.Error("malformed stream accepted")
			}
		})
	}
}

// TestDigestBuilderMatchesCombineDigest: the streaming digest over inline
// content hashing must equal the retained Digest value.
func TestDigestBuilderMatchesCombineDigest(t *testing.T) {
	img := buildTestImage(t)
	opts := MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: img.Spec.Seed, Parallelism: 1}
	want, err := img.Digest(opts)
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	// Streaming path: hash each file's content inline as its record passes.
	opts = opts.normalized(img)
	baseRNG := stats.NewRNG(opts.Seed).Fork(MaterializeStreamLabel)
	h := sha256.New()
	b := NewDigestBuilder(img.DirCount(), img.FileCount(), img.TotalBytes(), func(f File) (string, error) {
		h.Reset()
		if err := opts.Registry.ForExtension(f.Ext).Generate(h, f.Size, baseRNG.SplitN(uint64(f.ID))); err != nil {
			return "", err
		}
		return hex.EncodeToString(h.Sum(nil)), nil
	})
	if err := img.StreamRecords(b); err != nil {
		t.Fatalf("streaming digest: %v", err)
	}
	got, err := b.Sum()
	if err != nil {
		t.Fatalf("Sum: %v", err)
	}
	if got != want {
		t.Errorf("streamed digest %s != retained %s", got, want)
	}
}

// TestDigestBuilderRejectsWrongTotals: promised totals are part of the
// digest header, so a short stream must fail loudly instead of producing a
// digest for an image that never streamed.
func TestDigestBuilderRejectsWrongTotals(t *testing.T) {
	img := buildTestImage(t)
	b := NewDigestBuilder(img.DirCount(), img.FileCount()+1, img.TotalBytes(), func(f File) (string, error) {
		return "x", nil
	})
	if err := img.StreamRecords(b); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if _, err := b.Sum(); err == nil {
		t.Error("short stream produced a digest")
	}
}

// TestImageStatsMatchesRetainedHistograms: the retained histogram methods
// are wrappers over the streaming accumulator; cross-check a streamed
// accumulator against them anyway, so a future divergence of either path
// fails here.
func TestImageStatsMatchesRetainedHistograms(t *testing.T) {
	img := buildTestImage(t)
	st := NewImageStats(StatsConfig{SizeMaxExp: 30, DepthBins: 16, CountBins: 24})
	if err := img.StreamRecords(st); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if st.FileCount() != img.FileCount() || st.DirCount() != img.DirCount() || st.TotalBytes() != img.TotalBytes() {
		t.Fatalf("totals diverge: %d/%d/%d vs %d/%d/%d",
			st.FileCount(), st.DirCount(), st.TotalBytes(), img.FileCount(), img.DirCount(), img.TotalBytes())
	}
	if st.MaxFileDepth() != img.MaxFileDepth() {
		t.Errorf("max depth %d != %d", st.MaxFileDepth(), img.MaxFileDepth())
	}
	compare := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d bins vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s bin %d: %g vs %g", name, i, a[i], b[i])
			}
		}
	}
	compare("files by size", st.FilesBySize().Counts, img.FilesBySizeHistogram(30).Counts)
	compare("bytes by size", st.BytesBySize().Counts, img.BytesBySizeHistogram(30).Counts)
	compare("files by depth", st.FilesByDepth().Counts, img.FilesByDepthHistogram(16).Counts)
	compare("dirs by depth", st.DirsByDepth().Counts, img.DirsByDepthHistogram(16).Counts)
	compare("dirs by subdir", st.DirsBySubdir().Counts, img.DirsBySubdirHistogram(24).Counts)
	compare("dirs by file count", st.DirsByFileCount().Counts, img.DirsByFileCountHistogram(24).Counts)
	compare("mean bytes by depth", st.MeanBytesByDepth(), img.MeanBytesByDepth(16))

	wantTop := img.TopExtensions(3)
	gotTop := st.TopExtensions(3)
	if len(wantTop) != len(gotTop) {
		t.Fatalf("top extensions: %d vs %d entries", len(gotTop), len(wantTop))
	}
	for i := range wantTop {
		if wantTop[i] != gotTop[i] {
			t.Errorf("top extension %d: %+v vs %+v", i, gotTop[i], wantTop[i])
		}
	}
	compare("extension fractions", st.ExtensionFractions([]string{"txt", "null", "jpg"}),
		img.ExtensionFractions([]string{"txt", "null", "jpg"}))
}

// TestImageSinkMaterializeMatchesMaterialize: records streamed into an
// ImageSink and materialized from there produce the byte-identical tree
// the retained Materialize writes, and the digests collected during the
// write are the canonical per-file content digests.
func TestImageSinkMaterializeMatchesMaterialize(t *testing.T) {
	img := buildTestImage(t)
	opts := MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: img.Spec.Seed}

	retainedRoot := t.TempDir()
	wantWritten, err := img.Materialize(retainedRoot, opts)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	wantHash, err := HashTree(retainedRoot)
	if err != nil {
		t.Fatal(err)
	}

	sink := NewImageSink(img.Spec)
	if err := img.StreamRecords(sink); err != nil {
		t.Fatalf("streaming into ImageSink: %v", err)
	}
	streamed, err := sink.Image()
	if err != nil {
		t.Fatalf("ImageSink: %v", err)
	}
	streamRoot := t.TempDir()
	sopts := opts
	sopts.Parallelism = 1
	sopts.Digests = make([]string, len(streamed.Files))
	written, err := streamed.Materialize(streamRoot, sopts)
	if err != nil {
		t.Fatalf("materializing the streamed image: %v", err)
	}
	if written != wantWritten {
		t.Errorf("streamed image wrote %d bytes, retained wrote %d", written, wantWritten)
	}
	gotHash, err := HashTree(streamRoot)
	if err != nil {
		t.Fatal(err)
	}
	if gotHash != wantHash {
		t.Errorf("streamed tree hash %s != retained %s", gotHash, wantHash)
	}

	want, err := img.ContentDigests(opts)
	if err != nil {
		t.Fatal(err)
	}
	for id, sum := range want {
		if sopts.Digests[id] != sum {
			t.Errorf("file %d digest %s != %s", id, sopts.Digests[id], sum)
		}
	}
}

// TestMultiSinkFansOut: one stream feeding several sinks sees every record
// in each, and errors short-circuit.
func TestMultiSinkFansOut(t *testing.T) {
	img := buildTestImage(t)
	st := NewImageStats(StatsConfig{})
	retained := NewImageSink(img.Spec)
	if err := img.StreamRecords(MultiSink(st, retained)); err != nil {
		t.Fatalf("MultiSink stream: %v", err)
	}
	if st.FileCount() != img.FileCount() {
		t.Errorf("stats sink saw %d files, want %d", st.FileCount(), img.FileCount())
	}
	if _, err := retained.Image(); err != nil {
		t.Errorf("retained sink: %v", err)
	}
	boom := fmt.Errorf("boom")
	failing := NewTreeSink(func(File) error { return boom })
	err := img.StreamRecords(MultiSink(failing, NewImageSink(img.Spec)))
	if err == nil {
		t.Error("sink error did not abort the stream")
	}
}

// cancelAfter is a context whose Err reports cancellation once it has been
// polled n times without it: a deterministic mid-run cancellation.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestMaterializeCancellation: a cancelled context stops the per-file write
// loop at the next file instead of writing the whole image.
func TestMaterializeCancellation(t *testing.T) {
	img := buildTestImage(t)
	root := t.TempDir()
	_, err := img.Materialize(root, MaterializeOptions{
		Registry:    content.NewRegistry(content.KindDefault),
		Parallelism: 1,
		Context:     &cancelAfter{Context: context.Background(), n: 3},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled materialize: got %v, want context.Canceled", err)
	}
	written := 0
	filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			written++
		}
		return nil
	})
	if written != 3 || written >= len(img.Files) {
		t.Fatalf("wrote %d of %d files after cancellation at 3", written, len(img.Files))
	}
}
