package impressions

import (
	"context"
	"io"

	"impressions/internal/distribute"
)

// The distributed pipeline's public surface: plan → shard workers → merge,
// re-exported from internal/distribute. The contract is exact determinism —
// for a fixed seed, plan → K workers → merge produces an image
// byte-identical to a single-process Generate, for any K, any process
// placement, and any failure/retry history, because every RNG stream is a
// pure function of the master seed and a stable key.

// Plan is the serializable unit of work distribution: fully resolved image
// metadata plus a balanced subtree partition. Self-contained — a worker
// needs nothing but the plan document and a shard index.
type Plan = distribute.Plan

// OpenPlan is a validated, unpacked plan ready for in-process execution.
type OpenPlan = distribute.OpenPlan

// ShardView is everything one worker needs to execute a single shard.
type ShardView = distribute.ShardView

// Manifest is a worker's sealed proof of work for one shard.
type Manifest = distribute.Manifest

// WorkerOptions controls one shard execution (parallelism, metadata-only
// mode, cancellation).
type WorkerOptions = distribute.WorkerOptions

// MergeResult is the verified outcome of stitching shard manifests back
// into one image: the image, its report, and the canonical digest.
type MergeResult = distribute.MergeResult

// Audit grades an incomplete manifest set shard by shard, the entry point
// for resuming a partially failed distributed run.
type Audit = distribute.Audit

// PlanRequest is the single entry point for building plans: configuration,
// sharding, chunking, partitioned output, and spill-to-disk in one request
// struct instead of a family of positional-argument functions.
type PlanRequest = distribute.PlanRequest

// FragmentIndex describes a partitioned plan: the parent fingerprint plus
// the names of its fragment documents.
type FragmentIndex = distribute.FragmentIndex

// FragmentMergeResult is the outcome of a fragment-stream merge: the
// canonical digest and verified totals, with no retained image.
type FragmentMergeResult = distribute.FragmentMergeResult

// PartitionPlan builds a partitioned plan: K self-contained fragment
// documents (byte-identical to slicing the monolithic plan file), written
// to the writers open returns. Combined with PlanRequest.Spill, the whole
// build runs in O(dirs) live heap regardless of file count.
func PartitionPlan(ctx context.Context, req PlanRequest, open func(shard int) (io.WriteCloser, error)) (*Plan, error) {
	return distribute.PartitionPlan(ctx, req, open)
}

// MergeFragments verifies a complete set of fragment documents and worker
// manifests and reproduces the canonical image digest while holding
// O(dirs + shards·chunk) memory — no node in the partitioned pipeline ever
// materializes the image.
func MergeFragments(ctx context.Context, open func(shard int) (io.ReadCloser, error), manifests []*Manifest) (*FragmentMergeResult, error) {
	return distribute.MergeFragments(ctx, open, manifests)
}

// LoadFragmentIndex reads a fragment index file written by `plan -partition`.
func LoadFragmentIndex(path string) (*FragmentIndex, error) {
	return distribute.LoadFragmentIndex(path)
}

// LoadPlan reads and opens a plan file for in-process execution.
func LoadPlan(path string) (*OpenPlan, error) { return distribute.LoadPlan(path) }

// LoadPlanShard reads a plan file through the shard-pruning decoder,
// retaining only the given shard's records — a worker's memory is bounded
// by its shard, never the image.
func LoadPlanShard(path string, shard int) (*ShardView, error) {
	return distribute.LoadPlanShard(path, shard)
}

// DecodeShardView reads a self-contained shard document (as served by
// impressionsd's shard endpoint, or written by ShardView.Encode).
func DecodeShardView(r io.Reader) (*ShardView, error) { return distribute.DecodeShardView(r) }

// ExecuteShardView materializes one shard under outRoot and returns its
// sealed manifest. Shards share nothing; run any number concurrently, in
// any placement.
func ExecuteShardView(v *ShardView, outRoot string, opts WorkerOptions) (*Manifest, error) {
	return distribute.ExecuteShardView(v, outRoot, opts)
}

// Merge verifies a complete manifest set against the plan and stitches the
// shards back into a single image, report, and canonical digest.
func Merge(p *OpenPlan, manifests []*Manifest) (*MergeResult, error) {
	return distribute.Merge(p, manifests)
}

// AuditManifests grades a (possibly incomplete, possibly duplicated)
// manifest set shard by shard, so a failed run can be resumed instead of
// restarted.
func AuditManifests(p *OpenPlan, manifests []*Manifest) (*Audit, error) {
	return distribute.AuditManifests(p, manifests)
}

// MergeAudited merges a complete audit's verified manifests.
func MergeAudited(p *OpenPlan, audit *Audit) (*MergeResult, error) {
	return distribute.MergeAudited(p, audit)
}

// SpecFingerprint returns the content address (SHA-256 hex) of the plan a
// spec resolves to under the given sharding parameters. The spec is
// normalized first, so equivalent specs share an address; plan building is
// deterministic, so equal addresses imply byte-identical plan documents —
// the property impressionsd's plan cache is keyed on.
func SpecFingerprint(spec Spec, maxShards, chunkSize int) (string, error) {
	return distribute.SpecFingerprint(spec, maxShards, chunkSize)
}
