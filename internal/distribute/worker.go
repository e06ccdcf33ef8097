package distribute

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"impressions/internal/content"
	"impressions/internal/fsimage"
	"impressions/internal/stats"
)

// FileDigest records one written file in a shard manifest.
type FileDigest struct {
	// ID is the file's index in the plan's image.
	ID int `json:"id"`
	// Size is the file's size in bytes.
	Size int64 `json:"size"`
	// SHA256 is the hex content hash (empty in metadata-only runs).
	SHA256 string `json:"sha256,omitempty"`
}

// Manifest is a worker's proof of work for one shard: what it wrote, and
// the hashes that let the merge step verify it without re-reading a byte.
type Manifest struct {
	FormatVersion int `json:"format_version"`
	// PlanFingerprint binds the manifest to the exact plan it executed.
	PlanFingerprint string `json:"plan_fingerprint"`
	Shard           int    `json:"shard"`
	Dirs            int    `json:"dirs"`
	Files           int    `json:"files"`
	Bytes           int64  `json:"bytes"`
	// ContentHashed is false for metadata-only runs, where no content exists
	// to hash; merged digests are then unavailable.
	ContentHashed bool         `json:"content_hashed"`
	FileDigests   []FileDigest `json:"file_digests"`
	// ManifestSHA256 is a self-integrity hash over all fields above; Merge
	// recomputes it and rejects any manifest that was altered in transit.
	ManifestSHA256 string `json:"manifest_sha256"`
}

// selfHash computes the manifest's integrity hash.
func (m *Manifest) selfHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "impressions-manifest-v%d\nplan:%s\nshard:%d dirs:%d files:%d bytes:%d hashed:%t\n",
		m.FormatVersion, m.PlanFingerprint, m.Shard, m.Dirs, m.Files, m.Bytes, m.ContentHashed)
	for _, fd := range m.FileDigests {
		fmt.Fprintf(h, "%d %d %s\n", fd.ID, fd.Size, fd.SHA256)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Seal fills in the manifest's self-integrity hash.
func (m *Manifest) Seal() { m.ManifestSHA256 = m.selfHash() }

// VerifySelf checks the manifest's self-integrity hash.
func (m *Manifest) VerifySelf() error {
	if m.ManifestSHA256 == "" {
		return fmt.Errorf("distribute: shard %d manifest is unsealed (%w)", m.Shard, fsimage.ErrManifestIntegrity)
	}
	if got := m.selfHash(); got != m.ManifestSHA256 {
		return fmt.Errorf("distribute: shard %d manifest failed its integrity check (recorded %s, recomputed %s) — tampered or truncated (%w)",
			m.Shard, m.ManifestSHA256, got, fsimage.ErrManifestIntegrity)
	}
	return nil
}

// Encode writes the manifest as JSON.
func (m *Manifest) Encode(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("distribute: encoding manifest: %w", err)
	}
	return nil
}

// DecodeManifest reads a manifest previously written by Encode. Bytes that
// are not a manifest fail with fsimage.ErrManifestIntegrity; the seal is
// checked separately (VerifySelf, Merge).
func DecodeManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("distribute: decoding manifest: %w (%w)", err, fsimage.ErrManifestIntegrity)
	}
	return &m, nil
}

// LoadManifest reads a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("distribute: %w", err)
	}
	defer f.Close()
	return DecodeManifest(f)
}

// WorkerOptions controls one shard execution.
type WorkerOptions struct {
	// MetadataOnly creates correctly sized but empty files (no content, no
	// content hashes).
	MetadataOnly bool
	// Parallelism is the number of concurrent file writers within this
	// worker; 0 selects runtime.NumCPU(), 1 forces the serial path. As
	// everywhere else, the written bytes are identical at every level.
	Parallelism int
	// Context, when non-nil, lets a caller abandon the shard mid-write: the
	// per-file writer loops poll it between files and return ctx.Err().
	// Written files are left in place (the resume machinery cleans up).
	Context context.Context
}

// shardBody produces one shard's content — as files, as a tar segment, or
// only as hashes — from the given content registry. It stores the SHA-256
// (hex) of v.Files[i] in digests[i] (digests is nil for metadata-only
// runs) and returns the content bytes it wrote.
type shardBody func(reg *content.Registry, digests []string) (int64, error)

// executeShard is the one shard executor behind every entry point. It
// validates that this build derives the content stream the plan was built
// for, builds the content registry (unless reg is given), allocates the
// shard-local digest slots, runs body, and assembles and seals the
// manifest. Digest slots are per shard record, so a pruned worker's buffers
// scale with its shard, never the image.
func executeShard(v *ShardView, metadataOnly bool, reg *content.Registry, body shardBody) (*Manifest, error) {
	if err := validateShardStreamKey(v); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = content.NewRegistry(content.Kind(v.Plan.ContentKind))
	}
	var digests []string
	if !metadataOnly {
		digests = make([]string, len(v.Files))
	}
	written, err := body(reg, digests)
	if err != nil {
		return nil, fmt.Errorf("distribute: shard %d: %w", v.Shard, err)
	}
	m := &Manifest{
		FormatVersion:   FormatVersion,
		PlanFingerprint: v.Plan.Fingerprint(),
		Shard:           v.Shard,
		Dirs:            len(v.Dirs),
		Files:           len(v.Files),
		Bytes:           written,
		ContentHashed:   !metadataOnly,
		FileDigests:     make([]FileDigest, len(v.Files)),
	}
	for i, f := range v.Files {
		m.FileDigests[i] = FileDigest{ID: f.ID, Size: f.Size}
		if digests != nil {
			m.FileDigests[i].SHA256 = digests[i]
		}
	}
	m.Seal()
	return m, nil
}

// validateShardStreamKey checks that this build derives the content stream
// the plan's shard records. The plan's stream key is authoritative: a
// mismatch fails instead of silently writing bytes from a different stream.
func validateShardStreamKey(v *ShardView) error {
	sp := v.Plan.Shards[v.Shard]
	key, err := stats.ParseStreamKey(sp.StreamKey)
	if err != nil {
		return fmt.Errorf("distribute: shard %d stream key: %w", v.Shard, err)
	}
	want := stats.DeriveSeed(v.Plan.Seed, fsimage.MaterializeStreamLabel)
	if got := key.Apply(v.Plan.Seed); got != want {
		return fmt.Errorf("distribute: shard %d stream key %q derives seed %d; this build's content stream derives %d — plan is from an incompatible version (%w)",
			v.Shard, sp.StreamKey, got, want, fsimage.ErrPlanVersion)
	}
	return nil
}

// ExecuteShardView materializes one shard's view under outRoot and returns
// the sealed manifest. It reads nothing but the view — no state is shared
// with other workers, so any number of executions may run concurrently in
// one process, in N processes, or on N machines. Shards from different
// workers may share outRoot (subtrees are disjoint) or use separate roots
// that are later combined; the bytes written are identical either way.
func ExecuteShardView(v *ShardView, outRoot string, opts WorkerOptions) (*Manifest, error) {
	return executeShard(v, opts.MetadataOnly, nil, func(reg *content.Registry, digests []string) (int64, error) {
		return fsimage.MaterializeShardRecords(outRoot, v.Tree, v.Dirs, v.Files, fsimage.MaterializeOptions{
			Registry:     reg,
			Seed:         v.Plan.Seed,
			MetadataOnly: opts.MetadataOnly,
			Parallelism:  opts.Parallelism,
			Context:      opts.Context,
		}, digests)
	})
}

// DigestShardView computes one shard's manifest without touching disk: each
// file's content is generated straight into a hash, so the manifest is
// byte-for-byte the one ExecuteShardView would produce. It is the daemon's
// inline-fallback executor — with zero live workers a run still converges
// on the canonical digest, it just proves content instead of writing it.
// reg, when non-nil, is the content registry for the plan's kind (the
// daemon passes its warm cache). Files are hashed serially; ctx cancels
// between files.
func DigestShardView(ctx context.Context, v *ShardView, reg *content.Registry) (*Manifest, error) {
	return executeShard(v, false, reg, func(reg *content.Registry, digests []string) (int64, error) {
		cw := fsimage.NewContentWriter(reg, v.Plan.Seed)
		var written int64
		for i, f := range v.Files {
			err := ctx.Err()
			if err == nil {
				digests[i], err = cw.GenerateSum(nil, f)
			}
			if err != nil {
				return 0, err
			}
			written += f.Size
		}
		return written, nil
	})
}
