package distribute

import (
	"fmt"
	"io"
	"strings"

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// The shard wire format serializes one ShardView as a self-contained
// document of the shared chunked envelope (see document.go), so a server
// can hand a worker exactly its slice of a plan instead of the whole plan
// file:
//
//	{"view": {...header...}, "records": [...chunks...], "trailer": {...}}
//
// The header carries the sealed plan header (every field of Plan that
// Fingerprint folds, including the trailer-sealed chunk count and chain
// hash, which Plan's own JSON omits) plus the shard index. The records
// stream every directory of the compact tree followed by only the shard's
// file records, and the trailer seals that stream. Both sides buffer
// O(chunk). A decoded view executes exactly like one pruned out of the
// plan file — the plan fingerprint reconstructs bit-for-bit, so manifests
// produced against either are interchangeable. A plan fragment
// (PartitionPlan) is this same document.

// shardWireHeader is the "view" object of a shard document.
type shardWireHeader struct {
	FormatVersion int `json:"format_version"`
	Shard         int `json:"shard"`
	// PlanChunks / ImageSHA256 restore the plan's trailer-sealed fields
	// (json:"-" on Plan itself), so Fingerprint() of the decoded plan equals
	// the original's.
	PlanChunks  int    `json:"plan_chunks"`
	ImageSHA256 string `json:"image_sha256"`
	Plan        *Plan  `json:"plan"`
}

// newShardDocEncoder starts shard's document of the sealed plan p.
// ShardView.Encode feeds it from a retained view; PartitionPlan feeds one
// per shard straight off the metadata replay, so fragments are
// byte-identical to view-encoded documents by construction.
func newShardDocEncoder(p *Plan, shard int, w io.Writer) (*docEncoder, error) {
	return newDocEncoder(w, shardDoc, &shardWireHeader{
		FormatVersion: FormatVersion,
		Shard:         shard,
		PlanChunks:    p.Chunks,
		ImageSHA256:   p.ImageSHA256,
		Plan:          p,
	})
}

// Encode writes the view as a self-contained shard document: header, the
// tree's directory records plus only this shard's file records streamed
// through hash-guarded chunks, sealing trailer. Peak buffering is one chunk.
func (v *ShardView) Encode(w io.Writer) error {
	e, err := newShardDocEncoder(v.Plan, v.Shard, w)
	if err != nil {
		return err
	}
	for i := range v.Tree.Dirs {
		d := &v.Tree.Dirs[i]
		if err := e.AddDir(fsimage.DirRecord{ID: d.ID, Parent: d.Parent, Name: d.Name, Special: d.Special, Bias: d.Bias}); err != nil {
			return fmt.Errorf("distribute: %w", err)
		}
	}
	for _, f := range v.Files {
		if err := e.AddFile(f); err != nil {
			return fmt.Errorf("distribute: %w", err)
		}
	}
	return e.Close()
}

// viewAssembler is the RecordSink behind DecodeShardView. The directory half
// of the stream rebuilds the compact tree through the view core; the file
// half carries only the target shard's records, so it gets its own checks —
// ascending IDs within the plan's range, valid placement, shard membership
// — instead of TreeSink's whole-image density check, and the shard's sealed
// expectations stand in for whole-image totals.
type viewAssembler struct {
	viewCore
	// onFile, when non-nil, selects streaming assembly: each validated file
	// record is handed to the callback instead of retained, so a consumer
	// (the fragment merge) processes an arbitrarily large shard with O(dirs)
	// assembler state. The finished view then carries no Files slice.
	onFile    func(fsimage.File) error
	lastID    int
	fileCount int
	bytes     int64
}

// newViewAssembler starts assembling shard's view of hdr. onTree, when
// non-nil, fires once — as soon as the directory stream is complete and the
// partition verified (i.e. before the first file record is delivered) —
// handing the consumer the plan header and tree it needs to start folding
// a digest while files are still streaming.
func newViewAssembler(hdr *Plan, shard int, onFile func(fsimage.File) error, onTree func(*Plan, *namespace.Tree) error) (*viewAssembler, error) {
	core, err := newViewCore(hdr, shard)
	if err != nil {
		return nil, err
	}
	a := &viewAssembler{viewCore: core, onFile: onFile, lastID: -1}
	a.ts = fsimage.NewTreeSink(nil)
	if onTree != nil {
		a.onPartition = func() error { return onTree(a.hdr, a.ts.Tree()) }
	}
	return a, nil
}

// AddFile validates the next shard file record. Unlike the whole-image
// stream, shard file IDs are sparse: they must be strictly ascending and
// inside the plan's range, but not dense.
func (a *viewAssembler) AddFile(f fsimage.File) error {
	if err := a.ensurePartition(); err != nil {
		return err
	}
	tree := a.ts.Tree()
	if a.fileCount > 0 && f.ID <= a.lastID {
		return fmt.Errorf("distribute: shard file %d arrived out of order (after %d) (%w)", f.ID, a.lastID, fsimage.ErrManifestIntegrity)
	}
	if f.ID < 0 || f.ID >= a.hdr.Files {
		return fmt.Errorf("distribute: shard file %d outside the plan's %d files (%w)", f.ID, a.hdr.Files, fsimage.ErrManifestIntegrity)
	}
	if f.DirID < 0 || f.DirID >= tree.Len() {
		return fmt.Errorf("distribute: shard file %d references unknown directory %d (%w)", f.ID, f.DirID, fsimage.ErrManifestIntegrity)
	}
	if f.Size < 0 {
		return fmt.Errorf("distribute: shard file %d has negative size %d (%w)", f.ID, f.Size, fsimage.ErrManifestIntegrity)
	}
	if wantDepth := tree.Dirs[f.DirID].Depth + 1; f.Depth != wantDepth {
		return fmt.Errorf("distribute: shard file %d depth %d does not match directory depth %d (%w)", f.ID, f.Depth, wantDepth, fsimage.ErrManifestIntegrity)
	}
	if f.Name == "" || strings.ContainsAny(f.Name, "/\x00") {
		return fmt.Errorf("distribute: shard file %d has invalid name %q (%w)", f.ID, f.Name, fsimage.ErrManifestIntegrity)
	}
	if got := a.part.ShardOf(f.DirID); got != a.shard {
		return fmt.Errorf("distribute: file %d belongs to shard %d, document claims shard %d (%w)", f.ID, got, a.shard, fsimage.ErrManifestIntegrity)
	}
	a.lastID = f.ID
	a.fileCount++
	a.bytes += f.Size
	if a.onFile != nil {
		return a.onFile(f)
	}
	a.retain(f)
	return nil
}

// finish verifies the shard's sealed expectations and assembles the view.
func (a *viewAssembler) finish() (*ShardView, error) {
	if err := a.ensurePartition(); err != nil {
		return nil, err
	}
	sp := a.hdr.Shards[a.shard]
	if len(a.part.Shards[a.shard]) != sp.Dirs || a.fileCount != sp.Files || a.bytes != sp.Bytes {
		return nil, fmt.Errorf("distribute: shard %d document carried %d dirs, %d files, %d bytes; plan promises %d, %d, %d (%w)",
			a.shard, len(a.part.Shards[a.shard]), a.fileCount, a.bytes, sp.Dirs, sp.Files, sp.Bytes, fsimage.ErrManifestIntegrity)
	}
	return a.view(a.fileCount), nil
}

// DecodeShardView reads a shard document previously written by
// ShardView.Encode, verifying every record chunk against its integrity hash
// and the sealing trailer, and validating the shard's records against the
// embedded plan header. The decoded view executes exactly like one pruned
// from the full plan: the restored plan fingerprint is bit-identical, so
// manifests bind the same way.
func DecodeShardView(r io.Reader) (*ShardView, error) {
	return decodeShardDoc(r, nil, nil)
}

// decodeShardDoc is DecodeShardView parameterized by the assembler's
// optional callbacks: with a non-nil onFile every validated file record
// streams to it and the returned view carries the tree, partition, and plan
// header but no Files slice — the fragment merge's O(dirs) path. onTree, if
// set, fires once when the directory stream completes (see newViewAssembler).
func decodeShardDoc(r io.Reader, onFile func(fsimage.File) error, onTree func(*Plan, *namespace.Tree) error) (*ShardView, error) {
	var hdr shardWireHeader
	var asm *viewAssembler
	if _, _, err := decodeDocument(r, shardDoc, &hdr, func() (fsimage.RecordSink, error) {
		if hdr.FormatVersion != FormatVersion {
			return nil, fmt.Errorf("distribute: shard document format v%d, this build speaks v%d (%w)", hdr.FormatVersion, FormatVersion, fsimage.ErrPlanVersion)
		}
		if hdr.Plan == nil {
			return nil, fmt.Errorf("distribute: shard document carries no plan header (%w)", fsimage.ErrManifestIntegrity)
		}
		// Restore the trailer-sealed fields Plan's own JSON omits; the
		// fingerprint manifests bind to depends on them.
		hdr.Plan.Chunks = hdr.PlanChunks
		hdr.Plan.ImageSHA256 = hdr.ImageSHA256
		var err error
		asm, err = newViewAssembler(hdr.Plan, hdr.Shard, onFile, onTree)
		return asm, err
	}); err != nil {
		return nil, err
	}
	return asm.finish()
}
