package distribute

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"impressions/internal/core"
	"impressions/internal/fsimage"
)

// streamPlanFile writes a streamed plan for cfg into dir and returns its
// path and the sealed plan.
func streamPlanFile(t *testing.T, cfg core.Config, shards, chunkSize int, dir string) (string, *Plan) {
	t.Helper()
	path := filepath.Join(dir, "plan.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan, err := PlanRequest{Config: cfg, MaxShards: shards, ChunkSize: chunkSize}.Stream(context.Background(), f)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, plan
}

// TestStreamPlanMatchesRetainedBytes: re-encoding a decoded plan from its
// rebuilt image (the retained oracle) must reproduce the streamed document
// byte for byte, with the same sealed trailer fields and fingerprint —
// Stream and DecodePlan are exact inverses.
func TestStreamPlanMatchesRetainedBytes(t *testing.T) {
	cfg := testConfig()
	for _, chunkSize := range []int{0, 64} {
		streamed, sbytes := streamPlan(t, PlanRequest{Config: cfg, MaxShards: 4, ChunkSize: chunkSize})
		retained, err := DecodePlan(bytes.NewReader(sbytes))
		if err != nil {
			t.Fatalf("DecodePlan: %v", err)
		}
		var rbuf bytes.Buffer
		if err := encodePlan(retained, &rbuf); err != nil {
			t.Fatalf("encodePlan: %v", err)
		}
		if !bytes.Equal(rbuf.Bytes(), sbytes) {
			t.Fatalf("chunkSize %d: re-encoded plan bytes differ from streamed", chunkSize)
		}
		if streamed.Fingerprint() != retained.Fingerprint() {
			t.Errorf("chunkSize %d: fingerprints differ: %s vs %s", chunkSize, streamed.Fingerprint(), retained.Fingerprint())
		}
		if streamed.Chunks != retained.Chunks || streamed.ImageSHA256 != retained.ImageSHA256 {
			t.Errorf("chunkSize %d: sealed trailer fields differ", chunkSize)
		}
	}
}

// TestStreamedPlanWorkerMergeMatchesSingleProcess is the acceptance
// invariant for the out-of-core pipeline: a streamed plan (built without
// ever holding the image) executed by K pruned-decode workers and merged
// must reproduce the single-process retained digest and tree, K ∈ {1,2,4}.
func TestStreamedPlanWorkerMergeMatchesSingleProcess(t *testing.T) {
	cfg := testConfig()
	_, refDigest, refTreeHash := singleProcessReference(t, cfg)
	for _, workers := range []int{1, 2, 4} {
		path, _ := streamPlanFile(t, cfg, workers, 64, t.TempDir())
		outRoot := t.TempDir()
		manifests := make([]*Manifest, workers)
		for s := 0; s < workers; s++ {
			// Each worker takes the real worker-process path: pruned decode
			// of the plan file, then shard execution off the view.
			view, err := LoadPlanShard(path, s)
			if err != nil {
				t.Fatalf("K=%d LoadPlanShard(%d): %v", workers, s, err)
			}
			m, err := ExecuteShardView(view, outRoot, WorkerOptions{})
			if err != nil {
				t.Fatalf("K=%d ExecuteShardView(%d): %v", workers, s, err)
			}
			manifests[s] = m
		}
		open, err := LoadPlan(path)
		if err != nil {
			t.Fatalf("K=%d LoadPlan: %v", workers, err)
		}
		res, err := Merge(open, manifests)
		if err != nil {
			t.Fatalf("K=%d Merge: %v", workers, err)
		}
		if res.Digest != refDigest {
			t.Errorf("K=%d merged digest %s != single-process %s", workers, res.Digest, refDigest)
		}
		treeHash, err := fsimage.HashTree(outRoot)
		if err != nil {
			t.Fatal(err)
		}
		if treeHash != refTreeHash {
			t.Errorf("K=%d materialized tree hash %s != single-process %s", workers, treeHash, refTreeHash)
		}
	}
}

// TestWorkerDecodesOnlyItsShard is the worker-memory regression test: the
// pruned plan decode must retain exactly the shard's file records — never
// the image's — while still walking (and integrity-checking) the whole
// stream.
func TestWorkerDecodesOnlyItsShard(t *testing.T) {
	cfg := core.Config{NumFiles: 2000, NumDirs: 300, FSSizeBytes: 2000 * 512, Seed: 77, Parallelism: 1}
	path, plan := streamPlanFile(t, cfg, 4, 128, t.TempDir())
	if len(plan.Shards) != 4 {
		t.Fatalf("want 4 shards, got %d", len(plan.Shards))
	}
	for s, sp := range plan.Shards {
		view, err := LoadPlanShard(path, s)
		if err != nil {
			t.Fatalf("LoadPlanShard(%d): %v", s, err)
		}
		if got := len(view.Files); got != sp.Files {
			t.Errorf("shard %d retained %d file records, plan assigns %d", s, got, sp.Files)
		}
		// The bound that matters: retained records ≤ shard size, not image
		// size. With 4 comparable shards a worker must hold well under the
		// whole image even with generous slack.
		if slack := sp.Files + sp.Files/4 + 64; len(view.Files) > slack {
			t.Errorf("shard %d retained %d records, exceeding its shard-bounded slack %d (image has %d)",
				s, len(view.Files), slack, plan.Files)
		}
		if len(view.Files) >= plan.Files {
			t.Errorf("shard %d retained the whole image's %d records", s, plan.Files)
		}
		if view.StreamedFileRecords != plan.Files {
			t.Errorf("shard %d integrity-walked %d records, want all %d", s, view.StreamedFileRecords, plan.Files)
		}
		if len(view.Dirs) != sp.Dirs {
			t.Errorf("shard %d sees %d dirs, plan says %d", s, len(view.Dirs), sp.Dirs)
		}
	}
}

// TestDecodePlanShardRejectsDamage: the pruned decoder keeps every
// validation the retained decoder has.
func TestDecodePlanShardRejectsDamage(t *testing.T) {
	cfg := testConfig()
	path, plan := streamPlanFile(t, cfg, 2, 64, t.TempDir())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePlanShard(bytes.NewReader(raw), len(plan.Shards)); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := DecodePlanShard(bytes.NewReader(raw), -1); err == nil {
		t.Error("negative shard accepted")
	}
	// Bit-flip a metadata byte: the chunk hash must catch it.
	i := bytes.Index(raw, []byte(`"name":"dir`))
	if i < 0 {
		t.Fatal("no directory record found in plan bytes")
	}
	flipped := append([]byte(nil), raw...)
	flipped[i+len(`"name":"`)] ^= 1
	if _, err := DecodePlanShard(bytes.NewReader(flipped), 0); err == nil {
		t.Error("bit-flipped plan accepted by pruned decode")
	}
	// Truncate before the trailer: the seal must be missing.
	trunc := raw[:bytes.LastIndex(raw, []byte(`"trailer"`))-10]
	if _, err := DecodePlanShard(bytes.NewReader(trunc), 0); err == nil {
		t.Error("truncated plan accepted by pruned decode")
	}
}

// liveHeapPeak samples the live heap (forced GC before each read, so
// floating garbage does not count) while fn runs, returning the peak
// observed growth over the pre-run baseline in bytes.
func liveHeapPeak(t *testing.T, fn func()) uint64 {
	t.Helper()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc
	var peak atomic.Uint64
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}()
	fn()
	close(quit)
	<-done
	if peak.Load() < baseline {
		return 0
	}
	return peak.Load() - baseline
}

// TestStreamedPlanBuildMemoryBound is the O(chunk) acceptance contract made
// concrete at scale: a streamed plan build of a 1,000,000-file image must
// hold its peak live heap under a hard cap that the retained image alone
// would blow through (1M retained file records cost ~110 MB before
// counting the duplicate serialization state). The live columns the
// metadata pass legitimately holds — sizes, extensions, parents, the
// directory tree — fit comfortably; what this test forbids forever is any
// regression that materializes the file records during a streamed build.
func TestStreamedPlanBuildMemoryBound(t *testing.T) {
	if raceEnabled {
		t.Skip("memory ceilings are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("1M-file build skipped in -short")
	}
	cfg := core.Config{NumFiles: 1_000_000, NumDirs: 100_000, FSSizeBytes: 1_000_000 * 256, Seed: 20090225, Parallelism: 1}
	// Measured on the CI-class container: streamed peak ≈ 97 MB live
	// (columns + tree + resolver), retained-path peak ≈ 167 MB. The cap
	// sits between with ~30% headroom on the streamed side, so retaining
	// the 1M file records again can never slip past it.
	const cap = 128 << 20 // bytes of live-heap growth allowed at peak
	var plan *Plan
	peak := liveHeapPeak(t, func() {
		var err error
		plan, err = PlanRequest{Config: cfg, MaxShards: 8}.Stream(context.Background(), countingDiscard{})
		if err != nil {
			t.Errorf("Stream: %v", err)
		}
	})
	if plan == nil {
		t.Fatal("no plan")
	}
	if plan.Files != cfg.NumFiles {
		t.Fatalf("plan has %d files, want %d", plan.Files, cfg.NumFiles)
	}
	t.Logf("1M-file streamed plan build: peak live heap %.1f MB (cap %.0f MB)", float64(peak)/(1<<20), float64(cap)/(1<<20))
	if peak > cap {
		t.Errorf("streamed plan build peaked at %.1f MB live heap, cap is %.0f MB — something is retaining the image",
			float64(peak)/(1<<20), float64(cap)/(1<<20))
	}
}

// countingDiscard swallows writes without retaining them.
type countingDiscard struct{}

func (countingDiscard) Write(p []byte) (int, error) { return len(p), nil }
