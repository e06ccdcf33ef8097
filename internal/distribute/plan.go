// Package distribute implements multi-node generation of file-system
// images as a shard-plan / worker / merge pipeline:
//
//   - PlanRequest.Stream runs the (cheap) metadata pass once — directory
//     skeleton, constrained file sizes, extensions, placement — partitions
//     the namespace into balanced subtree shards, each carrying its stable
//     RNG stream key, and writes the plan document in the same pass. The
//     partition and per-shard expectations are computed from the compact
//     namespace tree and streaming per-shard accumulators, never from a
//     retained file slice, and the metadata streams through hash-guarded
//     chunks, so the planner holds O(chunk) file records. PartitionPlan
//     writes the same plan as K self-contained shard documents instead.
//     Every consumer reads plans back through one decoder: DecodePlan /
//     LoadPlan rebuild the image for in-process use (Open), DecodePlanShard
//     / LoadPlanShard keep one shard.
//   - A shard executor runs one shard in total isolation: it needs only the
//     plan file, produces the shard's directories and files (the expensive
//     content pass) as a directory tree (ExecuteShardView, or
//     ExecuteShardIncremental with a resumable journal), a tar segment
//     (ExecuteShardViewTar) or only hashes (DigestShardView), and emits a
//     Manifest recording per-file content hashes.
//     Workers share nothing, so "multi-node" is any shared-nothing fleet:
//     processes, containers, CI jobs, or machines. A worker decodes the plan
//     through the shard-pruning path (LoadPlanShard), retaining only its own
//     shard's file records — its memory is bounded by its shard, not the
//     image.
//   - Merge stitches the manifests back into a single image + report,
//     verifying count, byte, and hash invariants, and computes the canonical
//     image digest. Audit is the fault-tolerant entry point: it grades an
//     incomplete manifest set shard by shard so a failed run can be resumed
//     instead of restarted.
//
// The headline invariant, enforced by tests and CI: for a fixed seed,
// plan → K workers → merge produces an image byte-identical to a
// single-process run, for any K — even across worker failures, retries and
// resumed runs, and whether the plan was written whole or as fragments.
// This holds because every RNG stream is a pure function of the
// master seed and a stable key (see stats.StreamKey), never of process or
// worker identity, and because a shard's output is only trusted once its
// sealed manifest verifies against the plan fingerprint.
package distribute

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"impressions/internal/core"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
	"impressions/internal/stats"
)

// FormatVersion is the plan/manifest wire-format version. Workers refuse
// plans from a different major format. Version 2 replaced the single
// embedded image blob with the chunked metadata stream; version 3 moved the
// stream's chunk count and chain hash into a trailer, so a fused
// generate-and-encode pass can write a plan without ever holding the image.
const FormatVersion = 3

// ShardPlan describes one shard of the partitioned namespace.
type ShardPlan struct {
	// Index is the shard's position in Plan.Shards.
	Index int `json:"index"`
	// StreamKey is the stable RNG stream key (stats.StreamKey textual form)
	// of the content stream root; per-file streams are idx:<fileID> children
	// of it. Workers validate it instead of assuming this build's constant.
	StreamKey string `json:"stream_key"`
	// Roots lists the cut-set subtree roots owned by this shard. Roots may
	// sit at any depth (the balanced partitioner cuts dominant subtrees
	// below the top level, and a split directory appears as a singleton
	// root); a directory belongs to the shard of its nearest
	// ancestor-or-self in the cut set. Together with the embedded image the
	// roots fully determine the partition (namespace.PartitionFromRoots).
	Roots []int `json:"roots"`
	// Dirs / Files / Bytes are the expected shard totals, verified against
	// the worker's manifest at merge time.
	Dirs  int   `json:"dirs"`
	Files int   `json:"files"`
	Bytes int64 `json:"bytes"`
}

// Plan is the serializable unit of work distribution: the fully resolved
// image metadata plus the shard partition. It is self-contained — a worker
// needs nothing but the plan file and its shard index.
//
// On the wire a plan is one document of the shared chunked envelope
// (see document.go): {"header": {...this struct...}, "chunks": [...],
// "trailer": {...}}. Stream writes it and DecodePlan reads it one chunk at
// a time, so peak memory for the serialized metadata is O(chunk)
// regardless of image size.
type Plan struct {
	FormatVersion int    `json:"format_version"`
	Seed          int64  `json:"seed"`
	ContentKind   string `json:"content_kind"`
	// DigestAlgo names the canonical image-digest formula manifests feed.
	DigestAlgo string `json:"digest_algo"`
	Files      int    `json:"files"`
	Dirs       int    `json:"dirs"`
	Bytes      int64  `json:"bytes"`
	// Spec is the image's reproducibility spec.
	Spec fsimage.Spec `json:"spec"`
	// ChunkSize is the metadata records-per-chunk the stream was sliced by.
	ChunkSize int `json:"chunk_size"`
	// Chunks is the number of metadata chunks in the stream. It lives in the
	// wire trailer, not the header: the producer knows it only after the
	// last chunk is sealed.
	Chunks int `json:"-"`
	// ImageSHA256 chains the per-chunk record hashes
	// (fsimage.ChainChunkHashes), guarding the whole metadata stream. Like
	// Chunks it is sealed by the wire trailer.
	ImageSHA256 string      `json:"-"`
	Shards      []ShardPlan `json:"shards"`

	// img is the image metadata DecodePlan rebuilds chunk by chunk for
	// Open. The planner never holds it. It never appears in the wire JSON.
	img *fsimage.Image
}

// contentStreamKey is the stream key every shard records for the content
// pass. It is data, not just code: workers apply/validate what the plan
// says rather than assuming their own constant.
func contentStreamKey() stats.StreamKey {
	return stats.StreamKey{stats.ForkStep(fsimage.MaterializeStreamLabel)}
}

// resolvePlanMetadata validates cfg and runs the columnar metadata pass
// with disk simulation forced off (plans describe images; the expensive
// content pass is the workers' job).
func resolvePlanMetadata(ctx context.Context, cfg core.Config, maxShards int) (*core.Metadata, error) {
	if maxShards < 1 {
		return nil, fmt.Errorf("distribute: shard count %d < 1 (%w)", maxShards, fsimage.ErrInvalidSpec)
	}
	cfg.SimulateDisk = false
	cfg.LayoutScore = 1.0
	gen, err := core.NewGenerator(cfg)
	if err != nil {
		return nil, fmt.Errorf("distribute: %w", err)
	}
	m, err := gen.ResolveMetadataContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("distribute: metadata pass: %w", err)
	}
	return m, nil
}

// shardWeight estimates the materialization cost of one directory (its
// bytes, a per-file creation overhead, and a per-directory floor); the
// planner balances shards by it.
func shardWeight(d *namespace.Dir) float64 {
	return float64(d.Bytes) + 16*1024*float64(d.FileCount) + 4096
}

// planScaffold partitions the resolved metadata and assembles the plan
// header: every field except the trailer-sealed chunk count and chain hash.
// The partition is computed from the compact tree, and the per-shard
// file/byte expectations from a streaming accumulator over the placement
// columns — no file records are materialized here.
func planScaffold(m *core.Metadata, maxShards, chunkSize int) (*Plan, *namespace.Partition, error) {
	if chunkSize <= 0 {
		chunkSize = fsimage.DefaultChunkSize
	}
	part := namespace.PartitionBalanced(m.Tree(), maxShards, shardWeight)
	acc := namespace.NewShardAccumulator(part)
	if err := m.EachPlacement(func(_, dirID int, size int64) { acc.Add(dirID, size) }); err != nil {
		return nil, nil, fmt.Errorf("distribute: accumulating shard expectations: %w", err)
	}
	key := contentStreamKey().String()
	shards := make([]ShardPlan, part.Len())
	for s := range shards {
		shards[s] = ShardPlan{
			Index:     s,
			StreamKey: key,
			Roots:     part.ShardRoots(m.Tree(), s),
			Dirs:      len(part.Shards[s]),
			Files:     acc.Files(s),
			Bytes:     acc.Bytes(s),
		}
	}
	spec := m.Spec()
	return &Plan{
		FormatVersion: FormatVersion,
		Seed:          spec.Seed,
		ContentKind:   spec.ContentKind,
		DigestAlgo:    fsimage.DigestVersion,
		Files:         m.FileCount(),
		Dirs:          m.DirCount(),
		Bytes:         m.TotalBytes(),
		Spec:          spec,
		ChunkSize:     chunkSize,
		Shards:        shards,
	}, part, nil
}

// decodePlanDocument reads a plan document, replaying its verified records
// into the sink open returns for the format-checked header. The returned
// plan is the header open was handed, sealed with the trailer's chunk
// count and chain hash.
func decodePlanDocument(r io.Reader, open func(*Plan) (fsimage.RecordSink, error)) (*Plan, error) {
	p := &Plan{}
	chunks, seal, err := decodeDocument(r, planDoc, p, func() (fsimage.RecordSink, error) {
		if err := p.checkFormat(); err != nil {
			return nil, err
		}
		return open(p)
	})
	if err != nil {
		return nil, err
	}
	p.Chunks, p.ImageSHA256 = chunks, seal
	return p, nil
}

// DecodePlan reads a plan written by PlanRequest.Stream, verifying each
// metadata chunk's integrity hash and rebuilding the image incrementally —
// the serialized metadata is never held in memory whole. Open validates
// the decoded plan's shard expectations and unpacks the partition. Workers
// that only need one shard use DecodePlanShard instead and never rebuild
// the image.
func DecodePlan(r io.Reader) (*Plan, error) {
	var builder *fsimage.ImageSink
	p, err := decodePlanDocument(r, func(hdr *Plan) (fsimage.RecordSink, error) {
		builder = fsimage.NewImageSink(hdr.Spec)
		return builder, nil
	})
	if err != nil {
		return nil, err
	}
	img, err := builder.Image()
	if err != nil {
		return nil, fmt.Errorf("distribute: embedded image: %w (%w)", err, fsimage.ErrManifestIntegrity)
	}
	p.img = img
	return p, nil
}

// LoadPlan reads and opens a plan file.
func LoadPlan(path string) (*OpenPlan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("distribute: %w", err)
	}
	defer f.Close()
	p, err := DecodePlan(f)
	if err != nil {
		return nil, err
	}
	return p.Open()
}

// Fingerprint returns a SHA-256 (hex) over every field of the plan that
// determines worker output. Manifests record it, binding each manifest to
// the exact plan it was executed against; merge rejects any mismatch.
func (p *Plan) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "impressions-plan-v%d\nseed:%d\ncontent:%s\nalgo:%s\ndirs:%d files:%d bytes:%d\nimage:%s\n",
		p.FormatVersion, p.Seed, p.ContentKind, p.DigestAlgo, p.Dirs, p.Files, p.Bytes, p.ImageSHA256)
	for _, s := range p.Shards {
		fmt.Fprintf(h, "shard:%d key:%s dirs:%d files:%d bytes:%d roots:", s.Index, s.StreamKey, s.Dirs, s.Files, s.Bytes)
		for _, r := range s.Roots {
			fmt.Fprintf(h, "%d,", r)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// validateShardTable checks the header's shard table shape (indices dense
// and in order) and returns the per-shard root lists.
func (p *Plan) validateShardTable() ([][]int, error) {
	roots := make([][]int, len(p.Shards))
	for i, s := range p.Shards {
		if s.Index != i {
			return nil, fmt.Errorf("distribute: shard %d recorded with index %d (%w)", i, s.Index, fsimage.ErrManifestIntegrity)
		}
		roots[i] = s.Roots
	}
	return roots, nil
}

// partition rebuilds the shard partition over tree from the header's
// shard table.
func (p *Plan) partition(tree *namespace.Tree) (*namespace.Partition, error) {
	roots, err := p.validateShardTable()
	if err != nil {
		return nil, err
	}
	part, err := namespace.PartitionFromRoots(tree, roots)
	if err != nil {
		return nil, fmt.Errorf("distribute: rebuilding partition: %w (%w)", err, fsimage.ErrManifestIntegrity)
	}
	return part, nil
}

// checkShardExpectations verifies every shard's sealed directory, file and
// byte counts against the rebuilt partition and the records accumulated
// into acc.
func (p *Plan) checkShardExpectations(part *namespace.Partition, acc *namespace.ShardAccumulator) error {
	for i, s := range p.Shards {
		if len(part.Shards[i]) != s.Dirs || acc.Files(i) != s.Files || acc.Bytes(i) != s.Bytes {
			return fmt.Errorf("distribute: shard %d expectations (%d dirs, %d files, %d bytes) do not match the embedded image (%d, %d, %d) (%w)",
				i, s.Dirs, s.Files, s.Bytes, len(part.Shards[i]), acc.Files(i), acc.Bytes(i), fsimage.ErrManifestIntegrity)
		}
	}
	return nil
}

// checkFormat refuses a plan this build cannot execute: another wire
// format, or another canonical digest formula.
func (p *Plan) checkFormat() error {
	if p.FormatVersion != FormatVersion {
		return fmt.Errorf("distribute: plan format v%d, this build speaks v%d (%w)", p.FormatVersion, FormatVersion, fsimage.ErrPlanVersion)
	}
	if p.DigestAlgo != fsimage.DigestVersion {
		return fmt.Errorf("distribute: plan digest algo %q, this build computes %q (%w)", p.DigestAlgo, fsimage.DigestVersion, fsimage.ErrPlanVersion)
	}
	return nil
}

// OpenPlan is a validated, unpacked plan: the decoded image, the rebuilt
// partition, and the per-shard file lists.
type OpenPlan struct {
	Plan  *Plan
	Image *fsimage.Image
	Part  *namespace.Partition
	// FilesByShard lists each shard's file indices in ascending order.
	FilesByShard [][]int
}

// Open validates the plan — format version, totals, partition
// reconstruction, per-shard invariants — and unpacks it for execution. The
// metadata's chunk-level integrity is verified earlier, by DecodePlan.
func (p *Plan) Open() (*OpenPlan, error) {
	if err := p.checkFormat(); err != nil {
		return nil, err
	}
	img := p.img
	if img == nil {
		return nil, fmt.Errorf("distribute: plan holds no image metadata (only DecodePlan rebuilds it)")
	}
	if img.FileCount() != p.Files || img.DirCount() != p.Dirs || img.TotalBytes() != p.Bytes {
		return nil, fmt.Errorf("distribute: plan totals (%d files, %d dirs, %d bytes) do not match embedded image (%d, %d, %d) (%w)",
			p.Files, p.Dirs, p.Bytes, img.FileCount(), img.DirCount(), img.TotalBytes(), fsimage.ErrManifestIntegrity)
	}
	part, err := p.partition(img.Tree)
	if err != nil {
		return nil, err
	}
	filesByShard := make([][]int, part.Len())
	acc := namespace.NewShardAccumulator(part)
	for i := range img.Files {
		s := part.ShardOf(img.Files[i].DirID)
		filesByShard[s] = append(filesByShard[s], i)
		acc.Add(img.Files[i].DirID, img.Files[i].Size)
	}
	if err := p.checkShardExpectations(part, acc); err != nil {
		return nil, err
	}
	return &OpenPlan{Plan: p, Image: img, Part: part, FilesByShard: filesByShard}, nil
}
