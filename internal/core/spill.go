package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"impressions/internal/clock"
	"impressions/internal/constraint"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
	"impressions/internal/parallel"
	"impressions/internal/stats"
)

// Spill mode: the metadata pass with file-backed primitive columns.
//
// The in-memory metadata pass holds three primitive columns (~45 B/file
// after rounding); at 10⁸–10⁹ files that is the last O(N) state in the
// planning pipeline. When Config.SpillDir is set, the same pass writes each
// column to a temp file as it is drawn and replays it by sequential reads,
// so live heap is O(dirs + buffers) regardless of file count.
//
// The contract is exact: a spilled pass replays byte-identical records to
// the in-memory pass for the same seed. That holds because every RNG stream
// is a pure function of the master seed and a stable key (stats.Fork /
// SplitStream / SplitN derive from the parent's seed, never its draw
// state), so the spilled pass can re-derive the exact streams the
// in-memory phases consume and draw them in the same order:
//
//   - sizes: the constraint resolver's first pool draw is replicated
//     draw-for-draw (same base stream, same shard streams, same index
//     order) while streaming raw values to the column and accumulating the
//     sum left-to-right — bit-identical to stats.Sum over the retained
//     pool. If the raw draw satisfies the β tolerance (the resolver's fast
//     path, which every well-sized config hits), the spilled values are
//     final. Otherwise the full in-memory resolver runs from a fresh fork
//     — identical draws, identical oversampling — and its output is
//     written over the column; that fallback is the documented O(N) corner
//     (targets far from the distribution's expected sum).
//   - extensions: the sharded categorical draws are replayed sequentially
//     shard by shard and stored as compact u32 codes (table index, or a
//     flag plus the three packed base-36 draws of an "others" extension).
//   - placement: pass 1 (special/depth draws) streams to columns; the
//     commit loop splits files into per-depth (index, size) pair files;
//     pass 2 runs each depth's preferential attachment sequentially and
//     patches the parent column in place by offset.
//
// One observable divergence is tolerated: the convergence report's KS
// statistic is left at its zero value on the streamed fast path (computing
// it needs the retained pool). It is informational only — no plan byte,
// spec, or record depends on it.

// spill column file names.
const (
	spillSizesCol   = "sizes.f64"
	spillExtsCol    = "exts.u32"
	spillParentsCol = "parents.i32"
	spillDepthsCol  = "depths.i32"
)

// spillExtOther flags a spilled extension code as a packed random
// three-character extension rather than a table index.
const spillExtOther = uint32(1) << 31

// spillColumns is the file-backed variant of Metadata's primitive columns:
// one flat binary file per column under a private temp directory, written
// once by the spill-mode phases and replayed by sequential readers.
type spillColumns struct {
	dir      string   // private temp dir under Config.SpillDir; removed by Close
	n        int      // file count
	extNames []string // categorical extension names; spilled codes index this
	total    int64    // sum of rounded sizes, accumulated by the commit loop
}

func newSpillColumns(spillDir string, n int) (*spillColumns, error) {
	dir, err := os.MkdirTemp(spillDir, "impressions-spill-")
	if err != nil {
		return nil, fmt.Errorf("core: creating spill directory: %w", err)
	}
	return &spillColumns{dir: dir, n: n}, nil
}

// Close removes the spill directory and every column in it.
func (sp *spillColumns) Close() error {
	if sp == nil || sp.dir == "" {
		return nil
	}
	dir := sp.dir
	sp.dir = ""
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("core: removing spill directory: %w", err)
	}
	return nil
}

func (sp *spillColumns) path(name string) string { return filepath.Join(sp.dir, name) }

// colWriter writes one column sequentially through a buffer.
type colWriter struct {
	f   *os.File
	bw  *bufio.Writer
	err error
	buf [8]byte
}

func (sp *spillColumns) create(name string) (*colWriter, error) {
	f, err := os.Create(sp.path(name))
	if err != nil {
		return nil, fmt.Errorf("core: creating spill column %s: %w", name, err)
	}
	return &colWriter{f: f, bw: bufio.NewWriterSize(f, 256<<10)}, nil
}

func (w *colWriter) write(b []byte) {
	if w.err == nil {
		_, w.err = w.bw.Write(b)
	}
}

func (w *colWriter) f64(v float64) {
	binary.LittleEndian.PutUint64(w.buf[:8], math.Float64bits(v))
	w.write(w.buf[:8])
}

func (w *colWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

func (w *colWriter) i32(v int32) { w.u32(uint32(v)) }

func (w *colWriter) i64(v int64) {
	binary.LittleEndian.PutUint64(w.buf[:8], uint64(v))
	w.write(w.buf[:8])
}

func (w *colWriter) close() error {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	if cerr := w.f.Close(); w.err == nil {
		w.err = cerr
	}
	if w.err != nil {
		return fmt.Errorf("core: writing spill column %s: %w", filepath.Base(w.f.Name()), w.err)
	}
	return nil
}

// colReader reads one column sequentially through a buffer.
type colReader struct {
	f   *os.File
	br  *bufio.Reader
	err error
	buf [8]byte
}

func (sp *spillColumns) open(name string) (*colReader, error) {
	f, err := os.Open(sp.path(name))
	if err != nil {
		return nil, fmt.Errorf("core: opening spill column %s: %w", name, err)
	}
	return &colReader{f: f, br: bufio.NewReaderSize(f, 256<<10)}, nil
}

func (r *colReader) read(n int) []byte {
	if r.err != nil {
		return r.buf[:n]
	}
	if _, err := io_readFull(r.br, r.buf[:n]); err != nil {
		r.err = err
	}
	return r.buf[:n]
}

func (r *colReader) f64() float64 { return math.Float64frombits(binary.LittleEndian.Uint64(r.read(8))) }
func (r *colReader) u32() uint32  { return binary.LittleEndian.Uint32(r.read(4)) }
func (r *colReader) i32() int32   { return int32(r.u32()) }
func (r *colReader) i64() int64   { return int64(binary.LittleEndian.Uint64(r.read(8))) }

func (r *colReader) close() error {
	if cerr := r.f.Close(); r.err == nil {
		r.err = cerr
	}
	if r.err != nil {
		return fmt.Errorf("core: reading spill column %s: %w", filepath.Base(r.f.Name()), r.err)
	}
	return nil
}

// io_readFull avoids importing io just for ReadFull in this hot loop file.
func io_readFull(br *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := br.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// roundSpillSize is roundSizes for a single on-read value: spilled sizes are
// the raw draws, rounded to whole non-negative bytes at every read exactly
// as the in-memory column is rounded once after resolution.
func roundSpillSize(v float64) int64 {
	if v < 0 {
		v = 0
	}
	return int64(math.Round(v))
}

// extFor decodes a spilled extension code back to the raw extension draw.
func (sp *spillColumns) extFor(code uint32) string {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	if code&spillExtOther != 0 {
		v := code &^ spillExtOther
		return string([]byte{letters[v/(36*36)], letters[(v/36)%36], letters[v%36]})
	}
	return sp.extNames[code]
}

// resolveMetadataSpill is ResolveMetadataContext with file-backed columns:
// same phases, same RNG streams, same records — O(dirs) live heap.
func (g *Generator) resolveMetadataSpill(ctx context.Context) (*Metadata, error) {
	cfg := g.cfg
	rng := stats.NewRNG(cfg.Seed)
	phases := map[string]float64{}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 1: directory structure — identical to the in-memory pass (the
	// compact tree is O(dirs) and stays resident in both modes).
	start := clock.Now()
	tree := namespace.GenerateTree(rng.Fork("namespace"), cfg.NumDirs, cfg.TreeShape)
	if cfg.UseSpecialDirectories {
		tree.MarkSpecial(cfg.SpecialDirectories)
	}
	phases["directory structure"] = seconds(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sp, err := newSpillColumns(cfg.SpillDir, cfg.NumFiles)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			sp.Close()
		}
	}()

	// Phase 2: file sizes under the sum constraint, streamed to the column.
	start = clock.Now()
	convergence, err := g.resolveSizesSpill(sp)
	if err != nil {
		return nil, err
	}
	phases["file sizes distribution"] = seconds(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 3: extensions, streamed to the column.
	start = clock.Now()
	if err := g.assignExtensionsSpill(ctx, rng.Fork("extensions"), sp); err != nil {
		return nil, err
	}
	phases["popular extensions"] = seconds(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 4: placement, streamed (per-depth pair files + in-place patch).
	start = clock.Now()
	if err := g.placeFilesSpill(ctx, tree, rng, sp); err != nil {
		return nil, err
	}
	phases["file and bytes with depth"] = seconds(start)

	ok = true
	return &Metadata{
		tree:        tree,
		spill:       sp,
		spec:        g.buildSpec(),
		convergence: convergence,
		phases:      phases,
		totalBytes:  sp.total,
	}, nil
}

// resolveSizesSpill resolves the file-size constraint while streaming the
// sizes column to disk. The resolver's attempt-0 fast path is replicated
// draw-for-draw (see the package comment above); a missed tolerance falls
// back to the full in-memory resolver — identical draws from a fresh fork —
// whose output overwrites the column.
func (g *Generator) resolveSizesSpill(sp *spillColumns) (constraint.Result, error) {
	cfg := g.cfg
	n := cfg.NumFiles
	target := float64(cfg.FSSizeBytes)
	beta := cfg.Beta
	if beta <= 0 {
		beta = 0.05
	}
	if n > 0 && target > 0 && cfg.FileSizeDist != nil {
		// Replicate the resolver's first pool: one Uint64 off the "sizes"
		// fork seeds the pool base, shard s draws from SplitN(s) over the
		// fixed [lo, hi) bounds. Drawing the shards in index order on one
		// goroutine produces the identical column and lets the sum
		// accumulate in the exact left-to-right order stats.Sum uses.
		rng := stats.NewRNG(cfg.Seed).Fork("sizes")
		base := stats.NewRNG(int64(rng.Uint64())).SplitStream("pool")
		w, err := sp.create(spillSizesCol)
		if err != nil {
			return constraint.Result{}, err
		}
		sum := 0.0
		shards := parallel.Shards(n)
		for s := 0; s < shards; s++ {
			srng := base.SplitN(uint64(s))
			lo, hi := parallel.Bounds(n, s)
			for i := lo; i < hi; i++ {
				v := cfg.FileSizeDist.Sample(srng)
				sum += v
				w.f64(v)
			}
		}
		if err := w.close(); err != nil {
			return constraint.Result{}, err
		}
		if gap := math.Abs(sum-target) / target; gap <= beta {
			return constraint.Result{
				Sum:         sum,
				InitialBeta: gap,
				FinalBeta:   gap,
				Converged:   true,
			}, nil
		}
	}

	// The raw draw missed the tolerance band: run the full in-memory
	// resolver from a fresh "sizes" fork (bit-identical draws — forks
	// derive from the seed, not draw state) and spill its resolved, rounded
	// values. This is the documented O(N) corner of spill mode.
	sizes, convergence, err := g.resolveSizes(stats.NewRNG(cfg.Seed).Fork("sizes"))
	if err != nil {
		return constraint.Result{}, err
	}
	w, err := sp.create(spillSizesCol)
	if err != nil {
		return constraint.Result{}, err
	}
	for _, v := range sizes {
		w.f64(v)
	}
	if err := w.close(); err != nil {
		return constraint.Result{}, err
	}
	convergence.Values = nil
	return convergence, nil
}

// assignExtensionsSpill replays assignExtensions' sharded draws
// sequentially, spilling each file's extension as a compact code.
func (g *Generator) assignExtensionsSpill(ctx context.Context, rng *stats.RNG, sp *spillColumns) error {
	table := g.cfg.Dataset.ExtensionsByCount()
	sp.extNames = table.Names()
	if len(sp.extNames) >= int(spillExtOther) {
		return fmt.Errorf("core: extension table too large to spill (%d names)", len(sp.extNames))
	}
	w, err := sp.create(spillExtsCol)
	if err != nil {
		return err
	}
	n := sp.n
	shards := parallel.Shards(n)
	for s := 0; s < shards; s++ {
		if err := ctx.Err(); err != nil {
			w.close()
			return err
		}
		srng := rng.SplitN(uint64(s))
		lo, hi := parallel.Bounds(n, s)
		for i := lo; i < hi; i++ {
			idx := table.SampleIndex(srng)
			code := uint32(idx)
			if sp.extNames[idx] == "others" {
				// The three base-36 draws of randomExtension, packed.
				c0 := srng.Intn(36)
				c1 := srng.Intn(36)
				c2 := srng.Intn(36)
				code = spillExtOther | uint32((c0*36+c1)*36+c2)
			}
			w.u32(code)
		}
	}
	return w.close()
}

// placeFilesSpill replays placeFiles' two-pass placement pipeline over
// spilled columns: pass 1 streams the special/depth draws, the commit loop
// routes non-special files into per-depth (index, size) pair files, and
// pass 2 runs each depth level's sequential preferential attachment,
// patching the parent column in place by offset.
func (g *Generator) placeFilesSpill(ctx context.Context, tree *namespace.Tree, rng *stats.RNG, sp *spillColumns) error {
	placer := namespace.NewPlacer(tree, g.placerConfig(tree), rng.Fork("placement"))
	n := sp.n

	// Pass 1: special-directory draws and depth choices, shard streams
	// replayed in index order.
	sizesR, err := sp.open(spillSizesCol)
	if err != nil {
		return err
	}
	parentW, err := sp.create(spillParentsCol)
	if err != nil {
		sizesR.close()
		return err
	}
	depthW, err := sp.create(spillDepthsCol)
	if err != nil {
		sizesR.close()
		parentW.close()
		return err
	}
	depthStream := rng.Fork("placement/depth")
	shards := parallel.Shards(n)
	for s := 0; s < shards; s++ {
		if err := ctx.Err(); err != nil {
			sizesR.close()
			parentW.close()
			depthW.close()
			return err
		}
		srng := depthStream.SplitN(uint64(s))
		lo, hi := parallel.Bounds(n, s)
		for i := lo; i < hi; i++ {
			size := roundSpillSize(sizesR.f64())
			if dirID, ok := placer.ChooseSpecial(srng); ok {
				parentW.i32(int32(dirID))
				depthW.i32(int32(placer.FileDepthAt(dirID)))
				continue
			}
			parentW.i32(-1)
			depthW.i32(int32(placer.ChooseDepth(size, srng)))
		}
	}
	if err := sizesR.close(); err != nil {
		parentW.close()
		depthW.close()
		return err
	}
	if err := parentW.close(); err != nil {
		depthW.close()
		return err
	}
	if err := depthW.close(); err != nil {
		return err
	}

	// Commit loop: specials committed in index order (so every depth level
	// starts from the same directory counters as the in-memory pass);
	// everything else appended to its depth's pair file in index order —
	// the same ascending grouping byDepth builds in memory.
	maxDepth := placer.MaxFileDepth()
	pairName := func(d int) string { return fmt.Sprintf("depth-%d.pairs", d) }
	pairW := make([]*colWriter, maxDepth+1)
	closePairs := func() {
		for _, w := range pairW {
			if w != nil {
				w.close()
			}
		}
	}
	sizesR, err = sp.open(spillSizesCol)
	if err != nil {
		return err
	}
	parentR, err := sp.open(spillParentsCol)
	if err != nil {
		sizesR.close()
		return err
	}
	depthR, err := sp.open(spillDepthsCol)
	if err != nil {
		sizesR.close()
		parentR.close()
		return err
	}
	var total int64
	commitErr := func() error {
		for i := 0; i < n; i++ {
			size := roundSpillSize(sizesR.f64())
			parent := parentR.i32()
			depth := depthR.i32()
			total += size
			if parent >= 0 {
				placer.Commit(int(parent), size)
				continue
			}
			w := pairW[depth]
			if w == nil {
				var werr error
				if w, werr = sp.create(pairName(int(depth))); werr != nil {
					return werr
				}
				pairW[depth] = w
			}
			w.i32(int32(i))
			w.i64(size)
		}
		return nil
	}()
	if err := sizesR.close(); commitErr == nil {
		commitErr = err
	}
	if err := parentR.close(); commitErr == nil {
		commitErr = err
	}
	if err := depthR.close(); commitErr == nil {
		commitErr = err
	}
	if commitErr != nil {
		closePairs()
		return commitErr
	}
	for d, w := range pairW {
		if w == nil {
			continue
		}
		pairW[d] = nil
		if err := w.close(); err != nil {
			closePairs()
			return err
		}
	}
	sp.total = total

	// Pass 2: per-depth preferential attachment. Depth levels are
	// independent (each reads/updates only dirs at depth d-1) and each
	// draws from its own stream, so running them sequentially here matches
	// the in-memory parallel.Run exactly. The chosen parents are patched
	// into the parent column by offset; the page cache absorbs the small
	// in-place writes.
	parentF, err := os.OpenFile(sp.path(spillParentsCol), os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("core: opening spill column %s: %w", spillParentsCol, err)
	}
	parentStream := rng.Fork("placement/parent")
	var patch [4]byte
	for d := 0; d <= maxDepth; d++ {
		if _, err := os.Stat(sp.path(pairName(d))); err != nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			parentF.Close()
			return err
		}
		pr, err := sp.open(pairName(d))
		if err != nil {
			parentF.Close()
			return err
		}
		drng := parentStream.SplitN(uint64(d))
		st, err := pr.f.Stat()
		if err != nil {
			pr.close()
			parentF.Close()
			return err
		}
		pairs := st.Size() / 12
		for k := int64(0); k < pairs; k++ {
			i := pr.i32()
			size := pr.i64()
			if pr.err != nil {
				break
			}
			dirID := placer.ChooseParentAt(d-1, drng)
			placer.Commit(dirID, size)
			binary.LittleEndian.PutUint32(patch[:], uint32(int32(dirID)))
			if _, werr := parentF.WriteAt(patch[:], int64(i)*4); werr != nil {
				pr.err = werr
				break
			}
		}
		if err := pr.close(); err != nil {
			parentF.Close()
			return err
		}
		os.Remove(sp.path(pairName(d)))
	}
	if err := parentF.Close(); err != nil {
		return fmt.Errorf("core: patching spill column %s: %w", spillParentsCol, err)
	}
	os.Remove(sp.path(spillDepthsCol))
	return nil
}

// eachPlacement is the spilled EachPlacement: a lockstep sequential read of
// the parent and size columns.
func (sp *spillColumns) eachPlacement(fn func(fileID, dirID int, size int64)) error {
	sizesR, err := sp.open(spillSizesCol)
	if err != nil {
		return err
	}
	parentR, err := sp.open(spillParentsCol)
	if err != nil {
		sizesR.close()
		return err
	}
	for i := 0; i < sp.n; i++ {
		size := roundSpillSize(sizesR.f64())
		parent := parentR.i32()
		if sizesR.err != nil || parentR.err != nil {
			break
		}
		fn(i, int(parent), size)
	}
	if err := sizesR.close(); err != nil {
		parentR.close()
		return err
	}
	return parentR.close()
}

// eachFile replays the spilled columns as canonical file records, polling
// ctx every stride records (ctx may be nil-equivalent via context.Background).
func (sp *spillColumns) eachFile(ctx context.Context, tree *namespace.Tree, stride int, fn func(fsimage.File) error) error {
	sizesR, err := sp.open(spillSizesCol)
	if err != nil {
		return err
	}
	extsR, err := sp.open(spillExtsCol)
	if err != nil {
		sizesR.close()
		return err
	}
	parentR, err := sp.open(spillParentsCol)
	if err != nil {
		sizesR.close()
		extsR.close()
		return err
	}
	loopErr := func() error {
		for i := 0; i < sp.n; i++ {
			if stride > 0 && i%stride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			size := roundSpillSize(sizesR.f64())
			ext := sp.extFor(extsR.u32())
			parent := int(parentR.i32())
			if sizesR.err != nil || extsR.err != nil || parentR.err != nil {
				return nil // surfaced by the close calls below
			}
			if err := fn(fsimage.File{
				ID:    i,
				Name:  fsimage.MakeFileName(i, ext),
				Ext:   normalizeExt(ext),
				Size:  size,
				DirID: parent,
				Depth: tree.Dirs[parent].Depth + 1,
			}); err != nil {
				return err
			}
		}
		return nil
	}()
	if err := sizesR.close(); loopErr == nil {
		loopErr = err
	}
	if err := extsR.close(); loopErr == nil {
		loopErr = err
	}
	if err := parentR.close(); loopErr == nil {
		loopErr = err
	}
	return loopErr
}
