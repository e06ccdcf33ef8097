package core

import (
	"context"
	"fmt"

	"impressions/internal/clock"
	"impressions/internal/constraint"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
	"impressions/internal/stats"
)

// Metadata is the resolved metadata pass in compact columnar form: the
// directory tree plus one primitive column per file attribute (size,
// extension, parent directory). It is what the generation phases actually
// produce — the in-memory fsimage.Image is just one way to consume it.
// Holding columns instead of fsimage.File structs keeps the metadata pass
// free of per-file name allocations and lets consumers choose between
// retaining the image (Image), streaming its records into any
// fsimage.RecordSink (StreamRecords), or walking the placements without
// materializing records at all (EachPlacement) — the planner's route to
// per-shard accumulators with O(chunk) live records.
type Metadata struct {
	tree    *namespace.Tree
	sizes   []float64 // whole non-negative bytes per file
	exts    []string  // raw extension draws ("null" means none)
	parents []int32   // parent directory ID per file

	// spill, when non-nil, replaces the three columns above with their
	// file-backed variant (Config.SpillDir); sizes/exts/parents stay nil.
	spill *spillColumns

	spec        fsimage.Spec
	convergence constraint.Result
	phases      map[string]float64
	totalBytes  int64
}

// Close releases the file-backed columns of a spilled metadata pass. It is a
// no-op for in-memory metadata. Streaming consumers that resolve metadata
// themselves must close it when done.
func (m *Metadata) Close() error {
	if m.spill != nil {
		return m.spill.Close()
	}
	return nil
}

// Tree returns the directory tree (shared, not copied).
func (m *Metadata) Tree() *namespace.Tree { return m.tree }

// FileCount returns the number of files.
func (m *Metadata) FileCount() int {
	if m.spill != nil {
		return m.spill.n
	}
	return len(m.sizes)
}

// DirCount returns the number of directories (including the root).
func (m *Metadata) DirCount() int { return m.tree.Len() }

// TotalBytes returns the sum of all file sizes.
func (m *Metadata) TotalBytes() int64 { return m.totalBytes }

// Spec returns the reproducibility spec of the resolved metadata.
func (m *Metadata) Spec() fsimage.Spec { return m.spec }

// FileAt builds the canonical file record for file i on the fly.
func (m *Metadata) FileAt(i int) fsimage.File {
	parent := int(m.parents[i])
	return fsimage.File{
		ID:    i,
		Name:  fsimage.MakeFileName(i, m.exts[i]),
		Ext:   normalizeExt(m.exts[i]),
		Size:  int64(m.sizes[i]),
		DirID: parent,
		Depth: m.tree.Dirs[parent].Depth + 1,
	}
}

// EachPlacement walks every file's placement (ID, parent directory, size)
// without materializing records — the compact input for per-shard
// accumulators. In spill mode the walk is a sequential column read and can
// fail with an I/O error; in-memory it always returns nil.
func (m *Metadata) EachPlacement(fn func(fileID, dirID int, size int64)) error {
	if m.spill != nil {
		return m.spill.eachPlacement(fn)
	}
	for i := range m.sizes {
		fn(i, int(m.parents[i]), int64(m.sizes[i]))
	}
	return nil
}

// StreamRecords replays the metadata as the canonical record stream,
// building each file record transiently — Metadata is a fsimage.RecordSource
// whose live file records are bounded by whatever the sink buffers.
func (m *Metadata) StreamRecords(sink fsimage.RecordSink) error {
	for i := range m.tree.Dirs {
		d := &m.tree.Dirs[i]
		if err := sink.AddDir(fsimage.DirRecord{ID: d.ID, Parent: d.Parent, Name: d.Name, Special: d.Special, Bias: d.Bias}); err != nil {
			return err
		}
	}
	if m.spill != nil {
		return m.spill.eachFile(context.Background(), m.tree, 0, sink.AddFile)
	}
	for i := range m.sizes {
		if err := sink.AddFile(m.FileAt(i)); err != nil {
			return err
		}
	}
	return nil
}

// Image materializes the metadata as a retained in-memory image sharing the
// tree. This is the retained-sink path Generate takes; large-scale pipelines
// stream instead. Spilled metadata exists precisely to avoid O(files) heap,
// so retaining it is a programming error (Generate rejects SpillDir).
func (m *Metadata) Image() *fsimage.Image {
	if m.spill != nil {
		panic("core: Image() called on spilled metadata; stream it instead")
	}
	img := fsimage.New(m.tree)
	img.Files = make([]fsimage.File, m.FileCount())
	for i := range img.Files {
		img.Files[i] = m.FileAt(i)
	}
	img.Spec = m.spec
	return img
}

// ResolveMetadata runs the metadata pipeline — directory skeleton,
// constrained file sizes, extensions, placement — and returns the result in
// columnar form without building an image. It is the shared front half of
// Generate and GenerateStream, and the generation side of the fused
// distributed planner.
func (g *Generator) ResolveMetadata() (*Metadata, error) {
	return g.ResolveMetadataContext(context.Background())
}

// ResolveMetadataContext is ResolveMetadata with cancellation: ctx is
// checked between phases and polled per shard inside the sharded phases
// (extensions and both placement passes), so a server can abandon a
// disconnected client's metadata pass mid-phase. On cancellation the
// partial columns are discarded and ctx.Err() is returned.
func (g *Generator) ResolveMetadataContext(ctx context.Context) (*Metadata, error) {
	if g.cfg.SpillDir != "" {
		return g.resolveMetadataSpill(ctx)
	}
	cfg := g.cfg
	rng := stats.NewRNG(cfg.Seed)
	phases := map[string]float64{}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 1: directory structure (namespace skeleton). The attachment
	// model is sequential, so it runs on one goroutine at every
	// parallelism level.
	start := clock.Now()
	tree := namespace.GenerateTree(rng.Fork("namespace"), cfg.NumDirs, cfg.TreeShape)
	if cfg.UseSpecialDirectories {
		tree.MarkSpecial(cfg.SpecialDirectories)
	}
	phases["directory structure"] = seconds(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 2: file sizes under the sum constraint (§3.4).
	start = clock.Now()
	sizes, convergence, err := g.resolveSizes(rng.Fork("sizes"))
	if err != nil {
		return nil, err
	}
	phases["file sizes distribution"] = seconds(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 3: extensions from the percentile table (sharded workers).
	start = clock.Now()
	exts := g.assignExtensions(ctx, rng.Fork("extensions"), len(sizes))
	phases["popular extensions"] = seconds(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 4: file depths and parent directories (multiplicative model),
	// run as the two-pass sharded placement pipeline.
	start = clock.Now()
	parents, err := g.placeFiles(ctx, tree, sizes, rng)
	if err != nil {
		return nil, err
	}
	phases["file and bytes with depth"] = seconds(start)

	var total int64
	for _, s := range sizes {
		total += int64(s)
	}
	return &Metadata{
		tree:        tree,
		sizes:       sizes,
		exts:        exts,
		parents:     parents,
		spec:        g.buildSpec(),
		convergence: convergence,
		phases:      phases,
		totalBytes:  total,
	}, nil
}

// report assembles the reproducibility report for the resolved metadata.
func (m *Metadata) report(cfg Config, achievedLayout float64) fsimage.Report {
	r := fsimage.Report{
		Spec:                m.spec,
		GeneratedAt:         clock.Now(),
		ActualFiles:         m.FileCount(),
		ActualDirs:          m.DirCount(),
		ActualBytes:         m.totalBytes,
		AchievedLayoutScore: achievedLayout,
		Oversamples:         m.convergence.Oversamples,
		PhaseTimes:          m.phases,
	}
	if cfg.FSSizeBytes > 0 {
		r.SumError = abs64(m.totalBytes-cfg.FSSizeBytes) / float64(cfg.FSSizeBytes)
	}
	return r
}

func abs64(v int64) float64 {
	if v < 0 {
		return float64(-v)
	}
	return float64(v)
}

// GenerateStream runs the metadata pipeline and emits the resulting records
// directly into sink instead of retaining an image: the out-of-core
// generation path. Only the compact tree and per-file columns are held; the
// sink decides what survives (chunks, digests, statistics, disk — see
// fsimage's RecordSink implementations). Disk-layout simulation needs the
// retained image and is rejected here.
func (g *Generator) GenerateStream(sink fsimage.RecordSink) (fsimage.Report, error) {
	return g.GenerateStreamContext(context.Background(), sink)
}

// GenerateStreamContext is GenerateStream with cancellation: the metadata
// pass honors ctx as in ResolveMetadataContext, and the record replay checks
// ctx between chunks of records so a sink wired to a dead client does not
// stream to nowhere.
func (g *Generator) GenerateStreamContext(ctx context.Context, sink fsimage.RecordSink) (fsimage.Report, error) {
	if g.cfg.SimulateDisk {
		return fsimage.Report{}, fmt.Errorf("core: disk-layout simulation requires the retained path (Generate)")
	}
	m, err := g.ResolveMetadataContext(ctx)
	if err != nil {
		return fsimage.Report{}, err
	}
	defer m.Close()
	if err := m.streamRecordsContext(ctx, sink); err != nil {
		return fsimage.Report{}, err
	}
	return m.report(g.cfg, 1.0), nil
}

// streamRecordsContext replays the metadata into sink, polling ctx every
// cancelCheckStride records (per-record checks would dominate the replay
// loop's cost).
func (m *Metadata) streamRecordsContext(ctx context.Context, sink fsimage.RecordSink) error {
	const cancelCheckStride = 4096
	for i := range m.tree.Dirs {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		d := &m.tree.Dirs[i]
		if err := sink.AddDir(fsimage.DirRecord{ID: d.ID, Parent: d.Parent, Name: d.Name, Special: d.Special, Bias: d.Bias}); err != nil {
			return err
		}
	}
	if m.spill != nil {
		return m.spill.eachFile(ctx, m.tree, cancelCheckStride, sink.AddFile)
	}
	for i := range m.sizes {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := sink.AddFile(m.FileAt(i)); err != nil {
			return err
		}
	}
	return nil
}
