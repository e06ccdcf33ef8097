package distribute

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"

	"impressions/internal/core"
	"impressions/internal/fsimage"
	"impressions/internal/parallel"
	"impressions/internal/stats"
)

// fragmentBuffers builds a partitioned plan entirely into memory, one
// buffer per fragment.
func fragmentBuffers(t *testing.T, req PlanRequest) (*Plan, [][]byte) {
	t.Helper()
	bufs := make([]*bytes.Buffer, req.Partition)
	plan, err := PartitionPlan(context.Background(), req, func(shard int) (io.WriteCloser, error) {
		bufs[shard] = &bytes.Buffer{}
		return nopWriteCloser{bufs[shard]}, nil
	})
	if err != nil {
		t.Fatalf("PartitionPlan(K=%d): %v", req.Partition, err)
	}
	out := make([][]byte, len(bufs))
	for s, b := range bufs {
		out[s] = b.Bytes()
	}
	return plan, out
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// TestPartitionPlanFragmentsMatchSlicedPlan is the fragment format
// contract: fragment s of a partitioned build must be byte-identical to
// slicing shard s out of the monolithic plan document (DecodePlanShard →
// ShardView.Encode), for K ∈ {1, 2, 4} — so fragments built anywhere
// interoperate with every existing shard-document consumer.
func TestPartitionPlanFragmentsMatchSlicedPlan(t *testing.T) {
	cfg := testConfig()
	for _, k := range []int{1, 2, 4} {
		plan, frags := fragmentBuffers(t, PlanRequest{Config: cfg, Partition: k, ChunkSize: 64})
		var mono bytes.Buffer
		streamed, err := PlanRequest{Config: cfg, MaxShards: k, ChunkSize: 64}.Stream(context.Background(), &mono)
		if err != nil {
			t.Fatalf("K=%d Stream: %v", k, err)
		}
		if plan.Fingerprint() != streamed.Fingerprint() {
			t.Errorf("K=%d partitioned fingerprint %s != streamed %s", k, plan.Fingerprint(), streamed.Fingerprint())
		}
		for s := 0; s < k; s++ {
			view, err := DecodePlanShard(bytes.NewReader(mono.Bytes()), s)
			if err != nil {
				t.Fatalf("K=%d DecodePlanShard(%d): %v", k, s, err)
			}
			var want bytes.Buffer
			if err := view.Encode(&want); err != nil {
				t.Fatalf("K=%d Encode(%d): %v", k, s, err)
			}
			if !bytes.Equal(frags[s], want.Bytes()) {
				t.Errorf("K=%d fragment %d bytes differ from sliced monolithic plan", k, s)
			}
		}
	}
}

// runFragmentPipeline executes every fragment through the real worker path
// and merges the fragment streams, returning the merge result and the
// materialized out root.
func runFragmentPipeline(t *testing.T, frags [][]byte) (*FragmentMergeResult, string, error) {
	t.Helper()
	outRoot := t.TempDir()
	manifests := make([]*Manifest, len(frags))
	for s, doc := range frags {
		view, err := DecodeShardView(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("DecodeShardView(%d): %v", s, err)
		}
		m, err := ExecuteShardView(view, outRoot, WorkerOptions{})
		if err != nil {
			t.Fatalf("ExecuteShardView(%d): %v", s, err)
		}
		manifests[s] = m
	}
	res, err := MergeFragments(context.Background(), func(shard int) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(frags[shard])), nil
	}, manifests)
	return res, outRoot, err
}

// TestPartitionedPipelineMatchesSingleProcess is the acceptance invariant
// for distributed planning: fragments → workers → fragment merge must
// reproduce the single-process digest and a byte-identical tree (the
// diff -r equivalence), for K ∈ {1, 2, 4}.
func TestPartitionedPipelineMatchesSingleProcess(t *testing.T) {
	cfg := testConfig()
	_, refDigest, refTreeHash := singleProcessReference(t, cfg)
	for _, k := range []int{1, 2, 4} {
		_, frags := fragmentBuffers(t, PlanRequest{Config: cfg, Partition: k, ChunkSize: 64})
		res, outRoot, err := runFragmentPipeline(t, frags)
		if err != nil {
			t.Fatalf("K=%d MergeFragments: %v", k, err)
		}
		if res.Digest != refDigest {
			t.Errorf("K=%d fragment-merged digest %s != single-process %s", k, res.Digest, refDigest)
		}
		if res.Files != cfg.NumFiles {
			t.Errorf("K=%d merge reports %d files, want %d", k, res.Files, cfg.NumFiles)
		}
		treeHash, err := fsimage.HashTree(outRoot)
		if err != nil {
			t.Fatal(err)
		}
		if treeHash != refTreeHash {
			t.Errorf("K=%d materialized tree hash %s != single-process %s", k, treeHash, refTreeHash)
		}
	}
}

// TestMergeFragmentsTinyFragmentZero: when fragment 0 holds so few files
// that its decoder finishes (tree handed over, done reported) before the
// merge looks, the merge must still take the delivered tree instead of
// failing with "fragment 0 delivered no tree". The race depends on
// scheduling, so the merge of one tiny 2-shard plan is repeated.
func TestMergeFragmentsTinyFragmentZero(t *testing.T) {
	cfg := core.Config{NumFiles: 40, NumDirs: 8, FSSizeBytes: 40 * 512, Seed: 7, Parallelism: 1}
	_, frags := fragmentBuffers(t, PlanRequest{Config: cfg, Partition: 2, ChunkSize: 64})
	manifests := make([]*Manifest, len(frags))
	for s, doc := range frags {
		view, err := DecodeShardView(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("DecodeShardView(%d): %v", s, err)
		}
		if manifests[s], err = DigestShardView(context.Background(), view, nil); err != nil {
			t.Fatalf("DigestShardView(%d): %v", s, err)
		}
	}
	open := func(shard int) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(frags[shard])), nil
	}
	// Concurrent merges on more Ps than CPUs make the decoder of fragment 0
	// regularly finish before its merge reaches the select.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	const mergers, runs = 16, 4000
	var (
		mu       sync.Mutex
		failures int
		firstErr error
		wg       sync.WaitGroup
	)
	for g := 0; g < mergers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs/mergers; i++ {
				if _, err := MergeFragments(context.Background(), open, manifests); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					failures++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if failures > 0 {
		t.Fatalf("%d of %d merges of a tiny 2-shard plan failed; first: %v", failures, runs, firstErr)
	}
}

// rawDrawSum replicates the constraint resolver's attempt-0 pool sum for
// cfg, so tests can pin FSSizeBytes onto the spill fast path exactly.
func rawDrawSum(t *testing.T, cfg core.Config) float64 {
	t.Helper()
	n, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(n.Seed).Fork("sizes")
	base := stats.NewRNG(int64(rng.Uint64())).SplitStream("pool")
	sum := 0.0
	for s := 0; s < parallel.Shards(n.NumFiles); s++ {
		srng := base.SplitN(uint64(s))
		lo, hi := parallel.Bounds(n.NumFiles, s)
		for i := lo; i < hi; i++ {
			sum += n.FileSizeDist.Sample(srng)
		}
	}
	return sum
}

// TestSpilledPlanMatchesInMemory: a spilled metadata pass must produce a
// plan document byte-identical to the in-memory pass — on the resolver's
// replicated fast path (target placed on the raw draw sum) and on the
// documented O(N) fallback (target far from it).
func TestSpilledPlanMatchesInMemory(t *testing.T) {
	fast := testConfig()
	fast.FSSizeBytes = int64(rawDrawSum(t, fast))
	for name, cfg := range map[string]core.Config{"fastpath": fast, "fallback": testConfig()} {
		var mem bytes.Buffer
		if _, err := (PlanRequest{Config: cfg, MaxShards: 4, ChunkSize: 64}).Stream(context.Background(), &mem); err != nil {
			t.Fatalf("%s in-memory Stream: %v", name, err)
		}
		var spilled bytes.Buffer
		if _, err := (PlanRequest{Config: cfg, MaxShards: 4, ChunkSize: 64, Spill: t.TempDir()}).Stream(context.Background(), &spilled); err != nil {
			t.Fatalf("%s spilled Stream: %v", name, err)
		}
		if !bytes.Equal(mem.Bytes(), spilled.Bytes()) {
			t.Errorf("%s: spilled plan bytes differ from in-memory", name)
		}
	}
}

// TestPlanRequestValidation covers the request surface: conflicting
// MaxShards/Partition counts are an invalid spec for both planners.
func TestPlanRequestValidation(t *testing.T) {
	_, err := PartitionPlan(context.Background(), PlanRequest{Config: testConfig(), MaxShards: 3, Partition: 2}, func(int) (io.WriteCloser, error) {
		return nopWriteCloser{io.Discard}, nil
	})
	if !errors.Is(err, fsimage.ErrInvalidSpec) {
		t.Errorf("PartitionPlan with conflicting counts: got %v, want ErrInvalidSpec", err)
	}
	if _, err := (PlanRequest{Config: testConfig(), MaxShards: 3, Partition: 2}).Stream(context.Background(), io.Discard); !errors.Is(err, fsimage.ErrInvalidSpec) {
		t.Errorf("Stream with conflicting counts: got %v, want ErrInvalidSpec", err)
	}
}

// TestMergeFragmentsRejectsTamperedFragment: editing a fragment's header —
// here the parent chain hash it binds — must surface as an integrity
// violation, never a silently different image.
func TestMergeFragmentsRejectsTamperedFragment(t *testing.T) {
	cfg := testConfig()
	_, frags := fragmentBuffers(t, PlanRequest{Config: cfg, Partition: 2, ChunkSize: 64})

	// Build honest manifests first, then tamper fragment 1's header.
	manifests := make([]*Manifest, len(frags))
	outRoot := t.TempDir()
	for s, doc := range frags {
		view, err := DecodeShardView(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if manifests[s], err = ExecuteShardView(view, outRoot, WorkerOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	marker := []byte(`"image_sha256":"`)
	i := bytes.Index(frags[1], marker)
	if i < 0 {
		t.Fatal("no image_sha256 field in fragment header")
	}
	tampered := append([]byte(nil), frags[1]...)
	j := i + len(marker)
	if tampered[j] == '0' {
		tampered[j] = '1'
	} else {
		tampered[j] = '0'
	}
	docs := [][]byte{frags[0], tampered}
	_, err := MergeFragments(context.Background(), func(shard int) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(docs[shard])), nil
	}, manifests)
	if !errors.Is(err, fsimage.ErrManifestIntegrity) {
		t.Errorf("tampered fragment header: got %v, want ErrManifestIntegrity", err)
	}

	// A flipped record byte must be caught too (chunk hash).
	k := bytes.Index(frags[0], []byte(`"name":"dir`))
	if k < 0 {
		t.Fatal("no directory record in fragment 0")
	}
	flipped := append([]byte(nil), frags[0]...)
	flipped[k+len(`"name":"`)] ^= 1
	docs = [][]byte{flipped, frags[1]}
	if _, err := MergeFragments(context.Background(), func(shard int) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(docs[shard])), nil
	}, manifests); err == nil {
		t.Error("bit-flipped fragment record accepted")
	}
}

// TestFragmentIndexRoundTrip covers the index document: encode/decode
// round-trip, version gate, and the shards/fragments consistency check.
func TestFragmentIndexRoundTrip(t *testing.T) {
	ix := &FragmentIndex{
		FormatVersion: FragmentIndexVersion,
		Fingerprint:   "abc",
		Shards:        2,
		Files:         10,
		Dirs:          3,
		Bytes:         1024,
		Fragments:     []string{FragmentName("plan.json", 0), FragmentName("plan.json", 1)},
	}
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFragmentIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != ix.Fingerprint || got.Shards != ix.Shards || len(got.Fragments) != 2 {
		t.Errorf("round-trip mismatch: %+v", got)
	}
	bad := *ix
	bad.FormatVersion = FragmentIndexVersion + 1
	var b2 bytes.Buffer
	bad.Encode(&b2)
	if _, err := DecodeFragmentIndex(bytes.NewReader(b2.Bytes())); !errors.Is(err, fsimage.ErrPlanVersion) {
		t.Errorf("future index version: got %v, want ErrPlanVersion", err)
	}
	short := *ix
	short.Fragments = short.Fragments[:1]
	var b3 bytes.Buffer
	short.Encode(&b3)
	if _, err := DecodeFragmentIndex(bytes.NewReader(b3.Bytes())); err == nil {
		t.Error("index with missing fragment names accepted")
	}
}

// TestPartitionedPlanBuildMemoryBound is the headline contract of this
// refactor made concrete: a 10,000,000-file plan built as 8 spilled
// fragments must hold its peak live heap under the same 128 MB cap the 1M
// streamed build honors — an order of magnitude more files, no new memory.
// The target sum sits on the measured raw-draw sum for this seed, so the
// resolver takes the replicated streaming fast path (the spill contract's
// O(dirs) regime); a regression onto any O(files) column blows the cap.
// Extrapolation: live heap is dirs-dominated (~200k dirs here), so 10⁸
// files at the same dir count fits the same cap, and 10⁹ needs only the
// dir tree to grow.
func TestPartitionedPlanBuildMemoryBound(t *testing.T) {
	if raceEnabled {
		t.Skip("memory ceilings are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("10M-file build skipped in -short")
	}
	// FSSizeBytes pins the target onto the raw-draw sum measured for this
	// exact (NumFiles, Seed) pair, keeping the resolver on the streamed
	// fast path; see rawDrawSum for the replication it relies on.
	cfg := core.Config{NumFiles: 10_000_000, NumDirs: 200_000, FSSizeBytes: 3_605_134_771_990, Seed: 20090225, Parallelism: 1}
	req := PlanRequest{Config: cfg, Partition: 8, Spill: t.TempDir()}
	const memCap = 128 << 20
	var plan *Plan
	peak := liveHeapPeak(t, func() {
		var err error
		plan, err = PartitionPlan(context.Background(), req, func(int) (io.WriteCloser, error) {
			return nopWriteCloser{countingDiscard{}}, nil
		})
		if err != nil {
			t.Errorf("PartitionPlan: %v", err)
		}
	})
	if plan == nil {
		t.Fatal("no plan")
	}
	if plan.Files != cfg.NumFiles {
		t.Fatalf("plan has %d files, want %d", plan.Files, cfg.NumFiles)
	}
	t.Logf("10M-file partitioned plan build: peak live heap %.1f MB (cap %.0f MB), %d fragments",
		float64(peak)/(1<<20), float64(memCap)/(1<<20), len(plan.Shards))
	if peak > memCap {
		t.Errorf("partitioned plan build peaked at %.1f MB live heap, cap is %.0f MB — something is retaining O(files) state",
			float64(peak)/(1<<20), float64(memCap)/(1<<20))
	}
}
