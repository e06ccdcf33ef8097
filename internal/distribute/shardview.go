package distribute

import (
	"fmt"
	"io"
	"os"
	"slices"

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// ShardView is everything one worker needs to execute a single shard: the
// sealed plan header, the compact directory tree, the rebuilt partition,
// and just that shard's file records. The pruned decode (DecodePlanShard)
// produces one while holding O(dirs + shard files + chunk) memory — a
// worker's footprint is bounded by its shard, not by the image — and so
// does DecodeShardView from a shard document; a decoded OpenPlan can
// project one out for in-process execution.
type ShardView struct {
	Plan  *Plan
	Tree  *namespace.Tree
	Part  *namespace.Partition
	Shard int
	// Dirs lists the shard's directory IDs in ascending order.
	Dirs []int
	// Files lists the shard's file records in ascending ID order — the only
	// file records a pruned decode retains.
	Files []fsimage.File
	// StreamedFileRecords counts every file record the plan stream carried
	// (all shards); the pruned decode walks them all for integrity and
	// accounting but retains only len(Files).
	StreamedFileRecords int
}

// viewCore is the shard-view assembly both shard decoders share: the
// untrusted plan header and target shard, the compact tree the directory
// stream rebuilds, the partition rebuilt from the header's shard table once
// that stream completes, and the retained file records. What differs —
// whole-image density for a plan's records, sparse shard membership for a
// shard document's — stays with shardPruner and viewAssembler.
type viewCore struct {
	hdr   *Plan
	shard int
	ts    *fsimage.TreeSink
	part  *namespace.Partition
	files []fsimage.File
	// onPartition, when non-nil, fires once, right after the partition is
	// rebuilt.
	onPartition func() error
}

func newViewCore(hdr *Plan, shard int) (viewCore, error) {
	if err := hdr.checkFormat(); err != nil {
		return viewCore{}, err
	}
	if shard < 0 || shard >= len(hdr.Shards) {
		return viewCore{}, fmt.Errorf("distribute: shard %d out of range (plan has %d shards) (%w)", shard, len(hdr.Shards), fsimage.ErrInvalidSpec)
	}
	return viewCore{hdr: hdr, shard: shard}, nil
}

func (c *viewCore) AddDir(d fsimage.DirRecord) error { return c.ts.AddDir(d) }

// ensurePartition rebuilds the partition once the directory stream is
// complete (at the first file record, or at end-of-stream when no file
// records follow).
func (c *viewCore) ensurePartition() error {
	if c.part != nil {
		return nil
	}
	if got := c.ts.DirCount(); got != c.hdr.Dirs {
		return fmt.Errorf("distribute: document carried %d directories, plan header promises %d (%w)", got, c.hdr.Dirs, fsimage.ErrManifestIntegrity)
	}
	part, err := c.hdr.partition(c.ts.Tree())
	if err != nil {
		return err
	}
	c.part = part
	if c.onPartition != nil {
		return c.onPartition()
	}
	return nil
}

// retain keeps one of the shard's file records. The header is untrusted
// until the stream verifies, so capacity grows toward its declared count
// at most by doubling: a tampered count cannot force an allocation the
// decoded records do not justify, and an honest one ends exactly sized.
func (c *viewCore) retain(f fsimage.File) {
	if len(c.files) == cap(c.files) {
		n := max(2*len(c.files), 256)
		if want := c.hdr.Shards[c.shard].Files; want > len(c.files) {
			n = min(n, want)
		}
		c.files = slices.Grow(c.files, n-len(c.files))
	}
	c.files = append(c.files, f)
}

// view assembles the finished shard view.
func (c *viewCore) view(streamed int) *ShardView {
	return &ShardView{
		Plan:                c.hdr,
		Tree:                c.ts.Tree(),
		Part:                c.part,
		Shard:               c.shard,
		Dirs:                c.part.Shards[c.shard],
		Files:               c.files,
		StreamedFileRecords: streamed,
	}
}

// shardPruner is the RecordSink behind DecodePlanShard: the view core's
// TreeSink validates the whole image's dense record stream, a filter
// retains only the target shard's file records, and streaming per-shard
// accumulators stand in for the retained Open-time validation.
type shardPruner struct {
	viewCore
	acc *namespace.ShardAccumulator
}

func newShardPruner(hdr *Plan, shard int) (*shardPruner, error) {
	core, err := newViewCore(hdr, shard)
	if err != nil {
		return nil, err
	}
	pr := &shardPruner{viewCore: core}
	pr.ts = fsimage.NewTreeSink(pr.onFile)
	pr.onPartition = func() error {
		pr.acc = namespace.NewShardAccumulator(pr.part)
		return nil
	}
	return pr, nil
}

func (pr *shardPruner) AddFile(f fsimage.File) error { return pr.ts.AddFile(f) }

// onFile accounts every file record but retains only the target shard's.
func (pr *shardPruner) onFile(f fsimage.File) error {
	if err := pr.ensurePartition(); err != nil {
		return err
	}
	pr.acc.Add(f.DirID, f.Size)
	if pr.part.ShardOf(f.DirID) == pr.shard {
		pr.retain(f)
	}
	return nil
}

// finish runs the whole-plan validations the retained Open performs, from
// the streaming accumulators, and assembles the view.
func (pr *shardPruner) finish() (*ShardView, error) {
	if err := pr.ensurePartition(); err != nil {
		return nil, err
	}
	if pr.ts.FileCount() != pr.hdr.Files || pr.ts.TotalBytes() != pr.hdr.Bytes {
		return nil, fmt.Errorf("distribute: plan stream carried %d files, %d bytes; header promises %d, %d (%w)",
			pr.ts.FileCount(), pr.ts.TotalBytes(), pr.hdr.Files, pr.hdr.Bytes, fsimage.ErrManifestIntegrity)
	}
	if err := pr.hdr.checkShardExpectations(pr.part, pr.acc); err != nil {
		return nil, err
	}
	return pr.view(pr.ts.FileCount()), nil
}

// DecodePlanShard reads a plan document and retains only what executing the
// given shard needs: the directory tree, the partition, and that shard's
// file records. Every chunk is still integrity-verified against the trailer
// chain and every shard's expectations are still checked — the pruning
// drops memory, not validation.
func DecodePlanShard(r io.Reader, shard int) (*ShardView, error) {
	var pr *shardPruner
	// The pruner holds the header decodePlanDocument seals, so pr.hdr is the
	// finished plan.
	if _, err := decodePlanDocument(r, func(hdr *Plan) (fsimage.RecordSink, error) {
		var err error
		pr, err = newShardPruner(hdr, shard)
		return pr, err
	}); err != nil {
		return nil, err
	}
	return pr.finish()
}

// LoadPlanShard reads a plan file through the shard-pruning decoder — the
// entry point a distributed worker process uses, so its memory is bounded
// by its shard (plus the compact tree), never by the image.
func LoadPlanShard(path string, shard int) (*ShardView, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("distribute: %w", err)
	}
	defer f.Close()
	return DecodePlanShard(f, shard)
}

// ShardView projects one shard's view out of a retained open plan, for
// in-process execution (distrun, tests, the library API).
func (p *OpenPlan) ShardView(shard int) (*ShardView, error) {
	if shard < 0 || shard >= len(p.Plan.Shards) {
		return nil, fmt.Errorf("distribute: shard %d out of range (plan has %d shards) (%w)", shard, len(p.Plan.Shards), fsimage.ErrInvalidSpec)
	}
	idx := p.FilesByShard[shard]
	files := make([]fsimage.File, len(idx))
	for k, i := range idx {
		files[k] = p.Image.Files[i]
	}
	return &ShardView{
		Plan:                p.Plan,
		Tree:                p.Image.Tree,
		Part:                p.Part,
		Shard:               shard,
		Dirs:                p.Part.Shards[shard],
		Files:               files,
		StreamedFileRecords: len(p.Image.Files),
	}, nil
}
