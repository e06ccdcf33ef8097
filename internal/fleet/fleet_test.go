package fleet

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/distribute"
	"impressions/internal/fsimage"
)

// fakeClock is a hand-cranked clock: every scheduler decision is driven by
// explicit Advance calls, so lease expiry, heartbeat misses, and backoff
// windows are tested without a single sleep.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testConfig() core.Config {
	return core.Config{NumFiles: 240, NumDirs: 40, FSSizeBytes: 240 * 1024, Seed: 99, Parallelism: 1}
}

// openTestPlan streams, decodes and opens a small sharded plan.
func openTestPlan(t *testing.T, shards int) *distribute.OpenPlan {
	t.Helper()
	var buf bytes.Buffer
	if _, err := (distribute.PlanRequest{Config: testConfig(), MaxShards: shards, ChunkSize: 64}).Stream(context.Background(), &buf); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	plan, err := distribute.DecodePlan(&buf)
	if err != nil {
		t.Fatalf("DecodePlan: %v", err)
	}
	open, err := plan.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return open
}

// referenceDigest computes the single-process canonical digest for the test
// config — the value every scheduled run must converge to.
func referenceDigest(t *testing.T) string {
	t.Helper()
	res, err := core.GenerateImage(testConfig())
	if err != nil {
		t.Fatalf("GenerateImage: %v", err)
	}
	digest, err := res.Image.Digest(fsimage.MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: testConfig().Seed})
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	return digest
}

// manifestFor computes a shard's true manifest via the disk-free executor.
func manifestFor(t *testing.T, open *distribute.OpenPlan, shard int) *distribute.Manifest {
	t.Helper()
	view, err := open.ShardView(shard)
	if err != nil {
		t.Fatalf("ShardView(%d): %v", shard, err)
	}
	m, err := distribute.DigestShardView(context.Background(), view, nil)
	if err != nil {
		t.Fatalf("DigestShardView(%d): %v", shard, err)
	}
	return m
}

// testOptions are the standard scheduler knobs under the fake clock.
func testOptions(clk *fakeClock) Options {
	return Options{
		HeartbeatInterval: time.Second,
		HeartbeatMisses:   3,
		LeaseTTL:          time.Minute,
		MaxAttempts:       3,
		BackoffBase:       time.Second,
		BackoffMax:        8 * time.Second,
		InlineGrace:       -1, // no fallback unless a test opts in
		Clock:             clk.Now,
	}
}

// drainRun leases and completes every pending shard with its true manifest
// under the given worker, advancing past backoff gates as needed.
func drainRun(t *testing.T, s *Scheduler, clk *fakeClock, open *distribute.OpenPlan, workerID string) {
	t.Helper()
	for i := 0; i < 100; i++ {
		l, err := s.Lease(workerID)
		if err != nil {
			t.Fatalf("Lease: %v", err)
		}
		if l == nil {
			return
		}
		if err := s.Complete(l.LeaseID, manifestFor(t, open, l.Shard)); err != nil {
			t.Fatalf("Complete(shard %d): %v", l.Shard, err)
		}
	}
	t.Fatal("drainRun did not converge in 100 leases")
}

// TestSchedulerHappyPath: register, lease every shard, complete each with a
// verified manifest — the run ends in the single-process digest.
func TestSchedulerHappyPath(t *testing.T) {
	clk := newFakeClock()
	s := New(testOptions(clk))
	open := openTestPlan(t, 3)
	id, err := s.CreateRun(open.Plan.Fingerprint(), open)
	if err != nil {
		t.Fatalf("CreateRun: %v", err)
	}
	w := s.Register()
	drainRun(t, s, clk, open, w.WorkerID)

	st, err := s.Status(id)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.State != RunComplete {
		t.Fatalf("run state %s, want complete (error: %s)", st.State, st.Error)
	}
	if ref := referenceDigest(t); st.Digest != ref {
		t.Fatalf("run digest %s, want single-process %s", st.Digest, ref)
	}
	if st.Requeues != 0 || len(st.Outstanding) != 0 {
		t.Fatalf("clean run reports %d requeues, %d outstanding", st.Requeues, len(st.Outstanding))
	}
}

// TestLeaseDeadlineExpiry: a lease not completed within its per-attempt TTL
// is reclaimed, the shard re-queued with backoff, and a stale completion
// against the dead lease is refused — then the retry converges.
func TestLeaseDeadlineExpiry(t *testing.T) {
	clk := newFakeClock()
	s := New(testOptions(clk))
	open := openTestPlan(t, 2)
	id, err := s.CreateRun(open.Plan.Fingerprint(), open)
	if err != nil {
		t.Fatalf("CreateRun: %v", err)
	}
	w := s.Register()
	stale, err := s.Lease(w.WorkerID)
	if err != nil || stale == nil {
		t.Fatalf("Lease: %v, %v", stale, err)
	}

	// The worker keeps heartbeating but never finishes: only the per-attempt
	// deadline can reclaim the shard.
	for i := 0; i < 70; i++ {
		clk.Advance(time.Second)
		if err := s.Heartbeat(w.WorkerID); err != nil {
			t.Fatalf("Heartbeat: %v", err)
		}
	}
	s.Tick()

	st, _ := s.Status(id)
	if st.Requeues != 1 {
		t.Fatalf("requeues = %d after deadline expiry, want 1", st.Requeues)
	}
	if err := s.Complete(stale.LeaseID, manifestFor(t, open, stale.Shard)); !errors.Is(err, ErrLeaseInvalid) {
		t.Fatalf("stale completion: got %v, want ErrLeaseInvalid", err)
	}
	stats := s.StatsSnapshot()
	if stats.LeasesExpired != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", stats.LeasesExpired)
	}
	if stats.LeaseExpiryP95Millis < float64((time.Minute).Milliseconds()) {
		t.Fatalf("lease expiry p95 %.1fms, want >= the TTL", stats.LeaseExpiryP95Millis)
	}

	// Backoff gates the retry; once it lapses the run drains normally.
	clk.Advance(10 * time.Second)
	drainRun(t, s, clk, open, w.WorkerID)
	st, _ = s.Status(id)
	if st.State != RunComplete {
		t.Fatalf("run state %s after retry, want complete (%s)", st.State, st.Error)
	}
	if ref := referenceDigest(t); st.Digest != ref {
		t.Fatalf("digest after expiry-retry %s, want %s", st.Digest, ref)
	}
}

// TestWorkerDeathRequeues: a worker that stops heartbeating is declared
// dead and its leases expire immediately; a second worker finishes the run.
func TestWorkerDeathRequeues(t *testing.T) {
	clk := newFakeClock()
	s := New(testOptions(clk))
	open := openTestPlan(t, 2)
	id, err := s.CreateRun(open.Plan.Fingerprint(), open)
	if err != nil {
		t.Fatalf("CreateRun: %v", err)
	}
	dead := s.Register()
	if l, err := s.Lease(dead.WorkerID); err != nil || l == nil {
		t.Fatalf("Lease: %v, %v", l, err)
	}

	// Silence past the heartbeat budget — far short of the lease TTL.
	clk.Advance(4 * time.Second)
	s.Tick()
	stats := s.StatsSnapshot()
	if stats.WorkersLive != 0 || stats.LeasesExpired != 1 {
		t.Fatalf("after death: live=%d expired=%d, want 0 and 1", stats.WorkersLive, stats.LeasesExpired)
	}

	survivor := s.Register()
	clk.Advance(10 * time.Second) // clear the requeue backoff
	drainRun(t, s, clk, open, survivor.WorkerID)
	st, _ := s.Status(id)
	if st.State != RunComplete {
		t.Fatalf("run state %s, want complete (%s)", st.State, st.Error)
	}
	if ref := referenceDigest(t); st.Digest != ref {
		t.Fatalf("digest after worker death %s, want %s", st.Digest, ref)
	}
}

// TestTamperedManifestRejected: a manifest that fails server-side
// verification is rejected, its shard re-queued — and the eventual honest
// completion still converges to the reference digest.
func TestTamperedManifestRejected(t *testing.T) {
	clk := newFakeClock()
	s := New(testOptions(clk))
	open := openTestPlan(t, 2)
	id, err := s.CreateRun(open.Plan.Fingerprint(), open)
	if err != nil {
		t.Fatalf("CreateRun: %v", err)
	}
	w := s.Register()
	l, err := s.Lease(w.WorkerID)
	if err != nil || l == nil {
		t.Fatalf("Lease: %v, %v", l, err)
	}

	bad := manifestFor(t, open, l.Shard)
	bad.Bytes += 7 // seal no longer matches
	if err := s.Complete(l.LeaseID, bad); !errors.Is(err, ErrManifestRejected) {
		t.Fatalf("tampered completion: got %v, want ErrManifestRejected", err)
	}
	if stats := s.StatsSnapshot(); stats.ManifestsRejected != 1 {
		t.Fatalf("ManifestsRejected = %d, want 1", stats.ManifestsRejected)
	}

	clk.Advance(10 * time.Second)
	drainRun(t, s, clk, open, w.WorkerID)
	st, _ := s.Status(id)
	if st.State != RunComplete {
		t.Fatalf("run state %s, want complete (%s)", st.State, st.Error)
	}
	if st.Requeues == 0 {
		t.Fatal("rejected manifest did not count as a requeue")
	}
	if ref := referenceDigest(t); st.Digest != ref {
		t.Fatalf("digest after rejection-retry %s, want %s", st.Digest, ref)
	}
}

// TestMaxAttemptsFailsRun: a shard that burns every attempt fails the run,
// and the status names the outstanding shard with its re-run command.
func TestMaxAttemptsFailsRun(t *testing.T) {
	clk := newFakeClock()
	opts := testOptions(clk)
	opts.MaxAttempts = 2
	s := New(opts)
	open := openTestPlan(t, 1)
	id, err := s.CreateRun(open.Plan.Fingerprint(), open)
	if err != nil {
		t.Fatalf("CreateRun: %v", err)
	}
	w := s.Register()
	for attempt := 0; attempt < 2; attempt++ {
		clk.Advance(20 * time.Second) // clear any backoff gate
		l, err := s.Lease(w.WorkerID)
		if err != nil || l == nil {
			t.Fatalf("attempt %d: Lease: %v, %v", attempt, l, err)
		}
		clk.Advance(2 * time.Minute) // blow the per-attempt deadline
		s.Heartbeat(w.WorkerID)
		s.Tick()
	}
	st, _ := s.Status(id)
	if st.State != RunFailed {
		t.Fatalf("run state %s after max attempts, want failed", st.State)
	}
	if len(st.Outstanding) != 1 {
		t.Fatalf("outstanding = %d, want 1", len(st.Outstanding))
	}
	if !strings.Contains(st.Outstanding[0].Command, "impressions worker") {
		t.Fatalf("outstanding command %q does not name the worker re-run", st.Outstanding[0].Command)
	}
}

// TestInlineFallback: a run with zero live workers is finished daemon-side
// after the grace window — and still lands on the reference digest.
func TestInlineFallback(t *testing.T) {
	clk := newFakeClock()
	opts := testOptions(clk)
	opts.InlineGrace = 5 * time.Second
	var open *distribute.OpenPlan
	opts.InlineExecute = func(ctx context.Context, fp string, shard int) (*distribute.Manifest, error) {
		view, err := open.ShardView(shard)
		if err != nil {
			return nil, err
		}
		return distribute.DigestShardView(ctx, view, nil)
	}
	s := New(opts)
	open = openTestPlan(t, 2)
	id, err := s.CreateRun(open.Plan.Fingerprint(), open)
	if err != nil {
		t.Fatalf("CreateRun: %v", err)
	}

	clk.Advance(6 * time.Second)
	s.Tick()

	// Inline executions are asynchronous; poll the run in real time.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("Status: %v", err)
		}
		if st.State == RunComplete {
			if ref := referenceDigest(t); st.Digest != ref {
				t.Fatalf("inline digest %s, want %s", st.Digest, ref)
			}
			break
		}
		if st.State == RunFailed {
			t.Fatalf("inline run failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("inline run never completed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if stats := s.StatsSnapshot(); stats.InlineShards != 2 {
		t.Fatalf("InlineShards = %d, want 2", stats.InlineShards)
	}
}

// TestRunCap: the active-run cap refuses new runs and frees up as runs
// finish.
func TestRunCap(t *testing.T) {
	clk := newFakeClock()
	opts := testOptions(clk)
	opts.MaxRuns = 1
	s := New(opts)
	open := openTestPlan(t, 1)
	id, err := s.CreateRun(open.Plan.Fingerprint(), open)
	if err != nil {
		t.Fatalf("CreateRun: %v", err)
	}
	if _, err := s.CreateRun(open.Plan.Fingerprint(), open); !errors.Is(err, ErrTooManyRuns) {
		t.Fatalf("second CreateRun: got %v, want ErrTooManyRuns", err)
	}
	w := s.Register()
	drainRun(t, s, clk, open, w.WorkerID)
	if st, _ := s.Status(id); st.State != RunComplete {
		t.Fatalf("run state %s, want complete", st.State)
	}
	if _, err := s.CreateRun("fp-cap-2", openTestPlan(t, 1)); err != nil {
		t.Fatalf("CreateRun after completion: %v", err)
	}
}
