package distribute

import (
	"context"
	"fmt"
	"io"

	"impressions/internal/core"
	"impressions/internal/fsimage"
)

// PlanRequest is the single entry point for building plans: one request
// struct instead of a growing family of positional-argument functions. The
// zero values of everything but Config are valid. Stream writes the plan
// as one document, PartitionPlan as one shard document per shard; the two
// carry the same plan header and fingerprint.
type PlanRequest struct {
	// Config is the image configuration the plan describes.
	Config core.Config

	// MaxShards is the number of balanced subtree shards the namespace is
	// partitioned into (one worker per shard). When Partition is set it may
	// be left zero (Partition supplies the count) or must equal Partition —
	// fragments are shard documents, so the two knobs name the same cut.
	MaxShards int

	// ChunkSize sets the metadata records per serialized chunk; 0 selects
	// fsimage.DefaultChunkSize.
	ChunkSize int

	// Partition, when > 0, selects partitioned planning: PartitionPlan (and
	// the serve layer) emit the plan as Partition independent fragments —
	// one self-contained shard document each — instead of one monolithic
	// document. For Stream it simply fixes the shard count: the resulting
	// plan header is identical to MaxShards = Partition, so fragments and
	// monolithic documents interoperate freely.
	Partition int

	// Spill, when non-empty, routes the metadata pass through file-backed
	// columns under this directory (core.Config.SpillDir): the single-node
	// fallback that bounds the planner's live heap by O(dirs) when no fleet
	// is available. The plan bytes are identical with or without it.
	Spill string
}

// shardCount resolves the effective shard count from MaxShards/Partition.
func (r PlanRequest) shardCount() (int, error) {
	if r.Partition > 0 {
		if r.MaxShards != 0 && r.MaxShards != r.Partition {
			return 0, fmt.Errorf("distribute: PlanRequest.MaxShards %d conflicts with Partition %d — fragments are shard documents, the counts must agree (%w)",
				r.MaxShards, r.Partition, fsimage.ErrInvalidSpec)
		}
		return r.Partition, nil
	}
	return r.MaxShards, nil
}

// config returns the core config with the request's spill knob applied.
func (r PlanRequest) config() core.Config {
	cfg := r.Config
	cfg.SpillDir = r.Spill
	return cfg
}

// Stream is the planner: it resolves the metadata pass, partitions the
// namespace into balanced subtree shards (oversized subtrees are cut at
// deeper levels, so one worker per shard holds even when the generative
// model concentrates the namespace under a few top-level directories), and
// writes the complete plan document to w in one streaming pass — spec →
// metadata columns → chunk encoder — holding O(chunk) live file records and
// never an image. The returned plan is sealed (fingerprintable) but retains
// no image; decode the written bytes (LoadPlan / LoadPlanShard) for
// execution state.
//
// The metadata pass honors ctx, so a server can abandon a plan build whose
// requester is gone. On cancellation the partially written document is
// abandoned mid-stream — callers staging into a store must not commit it.
func (r PlanRequest) Stream(ctx context.Context, w io.Writer) (*Plan, error) {
	shards, err := r.shardCount()
	if err != nil {
		return nil, err
	}
	m, err := resolvePlanMetadata(ctx, r.config(), shards)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	p, _, err := planScaffold(m, shards, r.ChunkSize)
	if err != nil {
		return nil, err
	}
	enc, err := newDocEncoder(w, planDoc, p)
	if err != nil {
		return nil, err
	}
	if err := m.StreamRecords(enc); err != nil {
		return nil, fmt.Errorf("distribute: %w", err)
	}
	if err := enc.Close(); err != nil {
		return nil, err
	}
	p.Chunks, p.ImageSHA256 = enc.Chunks(), enc.ChainHash()
	return p, nil
}
