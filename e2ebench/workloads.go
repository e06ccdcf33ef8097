package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/distribute"
	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
	"impressions/internal/parallel"
	"impressions/internal/stats"
)

// pipeline names the path a workload drives through the distribute layer.
type pipeline int

const (
	// pipeTar: PlanRequest.Stream → DecodePlanShard ×K → ExecuteShardViewTar
	// → StitchPlanTar → LoadPlan + Merge.
	pipeTar pipeline = iota
	// pipeDir: PlanRequest.Stream → DecodePlanShard ×K → ExecuteShardView
	// into one directory tree → LoadPlan + Merge.
	pipeDir
	// pipePartitioned: PartitionPlan (spilled) → DecodeShardView per
	// fragment → DigestShardView → MergeFragments.
	pipePartitioned
)

// shards is K, the number of shards every workload's plan is cut into.
const shards = 4

// workload is one benchmark input: an image shape (file and directory
// counts, lognormal file sizes) and the pipeline it is built through.
type workload struct {
	name  string
	files int
	dirs  int
	mu    float64 // lognormal file-size parameters (log-space mean)
	sigma float64 // and standard deviation
	pipe  pipeline
}

// The workloads stress different layers, so an optimisation of one layer
// shows on one workload and must show no change on another: smallfiles-tar
// is per-entry cost (plan codec, tar headers, stitch), bigfiles-dir is
// content generation, sha256 and VFS writes with near-zero plan/tar cost,
// and metadata-partitioned is the metadata pass, fragment codec and merge
// with almost no content and no sink. The sizes are scaled so that one
// image takes one to two seconds on a 2-CPU box and a run's median covers
// about ten images.
var workloads = []workload{
	{name: "smallfiles-tar", files: 25000, dirs: 2500, mu: 6.9, sigma: 0.5, pipe: pipeTar},
	{name: "bigfiles-dir", files: 1600, dirs: 320, mu: 11.5, sigma: 1.2, pipe: pipeDir},
	{name: "metadata-partitioned", files: 100000, dirs: 10000, mu: 5, sigma: 0.5, pipe: pipePartitioned},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the image spec the workload's pipeline starts from. The
// file-system size is derived from the file count and the size model's
// mean, so the constraint resolver converges without a fallback.
func (w workload) config(seed int64) core.Config {
	return core.Config{
		Seed:         seed,
		NumFiles:     w.files,
		NumDirs:      w.dirs,
		FileSizeDist: stats.NewLognormal(w.mu, w.sigma),
	}
}

// iteration is one image built by the pipeline, as reported by the process
// that built it.
type iteration struct {
	// OriginUnixNano is when the process's tracer origin was taken and
	// StartUnixNano when the timed region began; the parent measures set-up
	// time from its own clock reading before it started the process.
	OriginUnixNano int64   `json:"origin_unix_nano"`
	StartUnixNano  int64   `json:"start_unix_nano"`
	WallSeconds    float64 `json:"wall_s"`
	Files          int     `json:"files"`
	ContentBytes   int64   `json:"content_bytes"`
	// WrittenBytes is every byte the run left in its output directory:
	// plan documents, fragments, segments and the final image.
	WrittenBytes int64 `json:"written_bytes"`
	// PeakRSSKB is the process's peak resident set right after the timed
	// region, before any check runs: VmHWM, the high-water mark of the
	// address space made at exec. (getrusage's ru_maxrss would not do: the
	// kernel carries the pre-exec address space's peak into it, and os/exec
	// starts children on the parent's address space.)
	PeakRSSKB     int64  `json:"peak_rss_kb"`
	Digest        string `json:"digest"`
	ArchiveSHA256 string `json:"archive_sha256,omitempty"`
	Spans         []Span `json:"spans,omitempty"`
	Error         string `json:"error,omitempty"`
}

// runIteration builds one image of w at seed under dir and returns what
// was measured. With tr non-nil every layer call is recorded as a span,
// and after the timed region the layer probes run (metadata pass into a
// discarding sink, content generation and hashing of the built files).
func runIteration(ctx context.Context, w workload, seed int64, dir string, tr *tracer) (*iteration, error) {
	it := &iteration{}
	if tr != nil {
		it.OriginUnixNano = tr.origin.UnixNano()
	}
	r := &run{w: w, seed: seed, dir: dir, tr: tr, workers: runtime.NumCPU()}
	start := time.Now()
	it.StartUnixNano = start.UnixNano()
	var rt0 []metrics.Sample
	if tr != nil {
		rt0 = readRuntimeMetrics()
	}
	err := tr.span("pipeline", func() (map[string]float64, error) {
		if err := r.execute(ctx); err != nil {
			return nil, err
		}
		return map[string]float64{"files": float64(r.files), "bytes": float64(r.bytes)}, nil
	})
	it.WallSeconds = time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	if it.PeakRSSKB, err = peakRSSKB(); err != nil {
		return nil, err
	}
	if tr != nil {
		rt := readRuntimeMetrics()
		root := tr.spans[lastIndex(tr.spans, "pipeline")].Args
		root["gc_cpu_s"] = rt[0].Value.Float64() - rt0[0].Value.Float64()
		root["total_cpu_s"] = rt[1].Value.Float64() - rt0[1].Value.Float64()
		root["heap_alloc_bytes"] = float64(rt[2].Value.Uint64() - rt0[2].Value.Uint64())
	}

	it.Files, it.ContentBytes, it.Digest = r.files, r.bytes, r.digest
	if it.WrittenBytes, err = writtenBytes(dir); err != nil {
		return nil, err
	}
	if r.archive != "" {
		if it.ArchiveSHA256, err = fileSHA256(r.archive); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		if err := r.probe(ctx); err != nil {
			return nil, err
		}
		it.Spans = tr.spans
	}
	return it, nil
}

// run is the state of one pipeline execution.
type run struct {
	w       workload
	seed    int64
	dir     string
	tr      *tracer
	workers int

	views     []*distribute.ShardView // kept for the probes when traced
	manifests []*distribute.Manifest
	archive   string // the stitched tar, for the byte-identity check

	files  int
	bytes  int64
	digest string
}

func (r *run) execute(ctx context.Context) error {
	req := distribute.PlanRequest{Config: r.w.config(r.seed), MaxShards: shards}
	switch r.w.pipe {
	case pipeTar, pipeDir:
		return r.monolithic(ctx, req)
	case pipePartitioned:
		return r.partitioned(ctx, req)
	}
	return fmt.Errorf("unknown pipeline %d", r.w.pipe)
}

// monolithic drives the monolithic-plan pipelines (tar and dir sinks).
func (r *run) monolithic(ctx context.Context, req distribute.PlanRequest) error {
	planPath := filepath.Join(r.dir, "plan.json")
	if err := r.tr.span("distribute.plan", func() (map[string]float64, error) {
		var p *distribute.Plan
		n, err := writeFile(planPath, func(w io.Writer) (err error) {
			p, err = req.Stream(ctx, w)
			return err
		})
		if err != nil {
			return nil, err
		}
		return map[string]float64{"bytes": float64(n), "files": float64(p.Files)}, nil
	}); err != nil {
		return err
	}

	opts := distribute.WorkerOptions{Parallelism: r.workers, Context: ctx}
	imageDir := filepath.Join(r.dir, "image")
	segments := make([]string, shards)
	if err := r.executeShards(func(int) string { return planPath },
		func(s int, f io.Reader) (*distribute.ShardView, error) {
			return distribute.DecodePlanShard(bufio.NewReaderSize(f, 1<<20), s)
		},
		func(s int, v *distribute.ShardView) (m *distribute.Manifest, err error) {
			if r.w.pipe == pipeDir {
				return distribute.ExecuteShardView(v, imageDir, opts)
			}
			segments[s] = filepath.Join(r.dir, fmt.Sprintf("segment%d.tar", s))
			_, err = writeFile(segments[s], func(w io.Writer) (err error) {
				m, err = distribute.ExecuteShardViewTar(v, w, opts)
				return err
			})
			return m, err
		}); err != nil {
		return err
	}

	if r.w.pipe == pipeTar {
		r.archive = filepath.Join(r.dir, "image.tar")
		if err := r.tr.span("imgfmt.stitch", func() (map[string]float64, error) {
			n, err := stitch(ctx, planPath, segments, r.archive)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"bytes": float64(n)}, nil
		}); err != nil {
			return err
		}
	}

	return r.tr.span("distribute.merge", func() (map[string]float64, error) {
		op, err := distribute.LoadPlan(planPath)
		if err != nil {
			return nil, err
		}
		res, err := distribute.Merge(op, r.manifests)
		if err != nil {
			return nil, err
		}
		r.files, r.bytes, r.digest = op.Plan.Files, res.Bytes, res.Digest
		return map[string]float64{"files": float64(r.files)}, nil
	})
}

// stitch merges the tar segments into the monolithic archive at out and
// returns the archive's size.
func stitch(ctx context.Context, planPath string, segments []string, out string) (int64, error) {
	plan, err := os.Open(planPath)
	if err != nil {
		return 0, err
	}
	defer plan.Close()
	readers := make([]io.Reader, len(segments))
	for i, path := range segments {
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		readers[i] = bufio.NewReaderSize(f, 1<<20)
	}
	return writeFile(out, func(w io.Writer) error {
		_, err := distribute.StitchPlanTar(bufio.NewReaderSize(plan, 1<<20), readers, w, imgfmt.Options{Context: ctx})
		return err
	})
}

// partitioned drives the fragment pipeline: no node holds the image.
func (r *run) partitioned(ctx context.Context, req distribute.PlanRequest) error {
	req.Partition, req.MaxShards = shards, 0
	req.Spill = filepath.Join(r.dir, "spill")
	if err := os.Mkdir(req.Spill, 0o755); err != nil {
		return err
	}
	frag := func(s int) string { return filepath.Join(r.dir, fmt.Sprintf("fragment%d.json", s)) }
	if err := r.tr.span("distribute.plan", func() (map[string]float64, error) {
		files := make([]*bufferedFile, shards)
		p, err := distribute.PartitionPlan(ctx, req, func(s int) (io.WriteCloser, error) {
			f, err := createBuffered(frag(s))
			files[s] = f
			return f, err
		})
		if err != nil {
			return nil, err
		}
		var n int64
		for _, f := range files {
			n += f.n
		}
		return map[string]float64{"bytes": float64(n), "files": float64(p.Files)}, nil
	}); err != nil {
		return err
	}

	if err := r.executeShards(frag,
		func(_ int, f io.Reader) (*distribute.ShardView, error) { return distribute.DecodeShardView(f) },
		func(_ int, v *distribute.ShardView) (*distribute.Manifest, error) {
			return distribute.DigestShardView(ctx, v, nil)
		},
	); err != nil {
		return err
	}

	return r.tr.span("distribute.merge", func() (map[string]float64, error) {
		res, err := distribute.MergeFragments(ctx, func(s int) (io.ReadCloser, error) { return os.Open(frag(s)) }, r.manifests)
		if err != nil {
			return nil, err
		}
		r.files, r.bytes, r.digest = res.Files, res.Bytes, res.Digest
		return map[string]float64{"files": float64(r.files)}, nil
	})
}

// executeShards runs the shards one after another: decode each shard's
// view from the document at doc(s), then execute it.
func (r *run) executeShards(doc func(s int) string,
	decode func(s int, f io.Reader) (*distribute.ShardView, error),
	exec func(s int, v *distribute.ShardView) (*distribute.Manifest, error),
) error {
	r.manifests = make([]*distribute.Manifest, shards)
	for s := range shards {
		var v *distribute.ShardView
		if err := r.tr.span("distribute.decode", func() (map[string]float64, error) {
			f, err := os.Open(doc(s))
			if err != nil {
				return nil, err
			}
			defer f.Close()
			if v, err = decode(s, f); err != nil {
				return nil, err
			}
			return map[string]float64{"files": float64(len(v.Files)), "streamed_files": float64(v.StreamedFileRecords)}, nil
		}); err != nil {
			return err
		}
		if err := r.tr.span("distribute.exec", func() (map[string]float64, error) {
			m, err := exec(s, v)
			if err != nil {
				return nil, err
			}
			r.manifests[s] = m
			return map[string]float64{"bytes": float64(m.Bytes), "files": float64(m.Files)}, nil
		}); err != nil {
			return err
		}
		if r.tr != nil {
			r.views = append(r.views, v)
		}
	}
	return nil
}

// probe runs the traced-only layer measurements after the timed region:
// the metadata pass alone, and the built files' content regenerated into
// a counting writer and into sha256. The sha256 probe must reproduce every
// manifest digest, so it measures exactly the bytes the pipeline wrote.
func (r *run) probe(ctx context.Context) error {
	cfg := r.w.config(r.seed)
	if r.w.pipe == pipePartitioned {
		cfg.SpillDir = filepath.Join(r.dir, "spill")
	}
	if err := r.tr.span("core.metadata", func() (map[string]float64, error) {
		g, err := core.NewGenerator(cfg)
		if err != nil {
			return nil, err
		}
		rep, err := g.GenerateStreamContext(ctx, discard{})
		if err != nil {
			return nil, err
		}
		r.tr.phases([]phase{
			{"namespace.tree", rep.PhaseTimes["directory structure"]},
			{"constraint.sizes", rep.PhaseTimes["file sizes distribution"]},
			{"core.extensions", rep.PhaseTimes["popular extensions"]},
			{"core.placement", rep.PhaseTimes["file and bytes with depth"]},
		})
		return map[string]float64{"oversamples": float64(rep.Oversamples), "files": float64(rep.ActualFiles)}, nil
	}); err != nil {
		return err
	}

	reg := content.NewRegistry(content.Kind(r.views[0].Plan.ContentKind))
	base := stats.NewRNG(r.views[0].Plan.Seed).Fork(fsimage.MaterializeStreamLabel)
	if err := r.tr.span("content.gen", func() (map[string]float64, error) {
		var cw content.CountingWriter
		for _, v := range r.views {
			for _, f := range v.Files {
				if err := reg.Generate(&cw, f.Ext, f.Size, base.SplitN(uint64(f.ID))); err != nil {
					return nil, err
				}
			}
		}
		return map[string]float64{"bytes": float64(cw.N)}, nil
	}); err != nil {
		return err
	}
	if err := r.tr.span("content.hash", func() (map[string]float64, error) {
		var n int64
		for s, v := range r.views {
			if err := hashFiles(reg, base, v.Files, r.manifests[s].FileDigests, &n); err != nil {
				return nil, err
			}
		}
		return map[string]float64{"bytes": float64(n)}, nil
	}); err != nil {
		return err
	}
	if r.w.pipe != pipeDir {
		return nil
	}
	// The VFS executor generates and hashes on r.workers goroutines; the
	// same work without the VFS, per shard and equally parallel, leaves
	// the VFS share of distribute.exec.
	return r.tr.span("content.hash_parallel", func() (map[string]float64, error) {
		var (
			total    atomic.Int64
			mu       sync.Mutex
			firstErr error
		)
		for s, v := range r.views {
			sums := r.manifests[s].FileDigests
			parallel.RunChunks(r.workers, len(v.Files), func(lo, hi int) {
				var n int64
				err := hashFiles(reg, base, v.Files[lo:hi], sums[lo:hi], &n)
				total.Add(n)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			})
		}
		if firstErr != nil {
			return nil, firstErr
		}
		return map[string]float64{"bytes": float64(total.Load())}, nil
	})
}

// hashFiles regenerates files' content into sha256, adds the bytes to *n
// and checks each sum against the manifest's.
func hashFiles(reg *content.Registry, base *stats.RNG, files []fsimage.File, want []distribute.FileDigest, n *int64) error {
	h := sha256.New()
	var sum [sha256.Size]byte
	for i, f := range files {
		h.Reset()
		if err := reg.Generate(h, f.Ext, f.Size, base.SplitN(uint64(f.ID))); err != nil {
			return err
		}
		*n += f.Size
		if got := hex.EncodeToString(h.Sum(sum[:0])); got != want[i].SHA256 || want[i].ID != f.ID {
			return fmt.Errorf("content probe: file %d hashes to %s, manifest says %s", f.ID, got, want[i].SHA256)
		}
	}
	return nil
}

type discard struct{}

func (discard) AddDir(fsimage.DirRecord) error { return nil }
func (discard) AddFile(fsimage.File) error     { return nil }

// bufferedFile is a buffered, byte-counting file writer.
type bufferedFile struct {
	f  *os.File
	bw *bufio.Writer
	n  int64
}

func createBuffered(path string) (*bufferedFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &bufferedFile{f: f, bw: bufio.NewWriterSize(f, 1<<20)}, nil
}

func (b *bufferedFile) Write(p []byte) (int, error) {
	n, err := b.bw.Write(p)
	b.n += int64(n)
	return n, err
}

func (b *bufferedFile) Close() error {
	if err := b.bw.Flush(); err != nil {
		b.f.Close()
		return err
	}
	return b.f.Close()
}

// writeFile creates path, lets fill write it through a buffer, and
// returns the bytes written.
func writeFile(path string, fill func(io.Writer) error) (int64, error) {
	f, err := createBuffered(path)
	if err != nil {
		return 0, err
	}
	if err := fill(f); err != nil {
		f.Close()
		return 0, err
	}
	return f.n, f.Close()
}

// writtenBytes sums the sizes of the regular files under dir, leaving out
// the metadata pass's spill columns (scratch state, not output).
func writtenBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "spill" {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// peakRSSKB reads this process's VmHWM from /proc/self/status, in KiB.
func peakRSSKB() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64)
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM line")
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runtimeMetricNames are read around the traced pipeline: GC CPU, all CPU,
// and cumulative heap allocation.
var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntimeMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// reference computes the single-process reference for w at seed, outside
// any timed region: the canonical digest of core.GenerateImage's image and,
// for the tar workload, the SHA-256 of WritePlanTar's monolithic archive.
func reference(ctx context.Context, w workload, seed int64, dir string) (digest, archiveSHA string, err error) {
	res, err := core.GenerateImageContext(ctx, w.config(seed))
	if err != nil {
		return "", "", err
	}
	digest, err = res.Image.Digest(fsimage.MaterializeOptions{
		Registry: content.NewRegistry(content.Kind(res.Image.Spec.ContentKind)),
		Seed:     res.Image.Spec.Seed,
		Context:  ctx,
	})
	if err != nil || w.pipe != pipeTar {
		return digest, "", err
	}
	planPath := filepath.Join(dir, "reference-plan.json")
	req := distribute.PlanRequest{Config: w.config(seed), MaxShards: shards}
	if _, err := writeFile(planPath, func(wr io.Writer) error { _, err := req.Stream(ctx, wr); return err }); err != nil {
		return "", "", err
	}
	defer os.Remove(planPath)
	plan, err := os.Open(planPath)
	if err != nil {
		return "", "", err
	}
	defer plan.Close()
	h := sha256.New()
	_, tarDigest, err := distribute.WritePlanTar(bufio.NewReaderSize(plan, 1<<20), h, imgfmt.Options{Context: ctx}, nil)
	if err != nil {
		return "", "", err
	}
	if tarDigest != digest {
		return "", "", fmt.Errorf("reference: WritePlanTar digest %s differs from the single-process digest %s", tarDigest, digest)
	}
	return digest, hex.EncodeToString(h.Sum(nil)), nil
}
