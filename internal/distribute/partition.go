package distribute

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// Partitioned planning: the plan itself built as K independent fragments.
//
// A plan fragment IS a shard document — the exact wire format
// ShardView.Encode produces and workers already consume (DecodeShardView,
// ExecuteShardView, the serve layer's shard endpoint). PartitionPlan
// resolves the metadata pass once, seals the monolithic plan header (chunk
// count + chain hash, so the fragment-embedded plan fingerprints
// bit-identically to the monolithic file's), and then routes one record
// replay through K incremental document encoders. Nothing retains the
// image: live state is the compact tree plus K chunk buffers, and with the
// spill knob set (PlanRequest.Spill) even the metadata columns live on
// disk, so a 10⁸-file plan builds in O(dirs) heap. Fragment i is
// byte-identical to slicing the monolithic plan file (DecodePlanShard →
// Encode): both derive from the same seed-keyed metadata replay.
//
// MergeFragments is the no-O(image) verification pass: it streams all K
// fragment documents through a DigestBuilder (plus each shard's manifest)
// and reproduces the canonical image digest while holding the tree and
// O(K × chunk) buffers.

// FragmentIndexVersion is the fragment-index wire version.
const FragmentIndexVersion = 1

// FragmentIndex describes a partitioned plan: the parent plan's identity
// plus the names of its fragment documents. It is what `plan -partition`
// writes at the plan path (fragments land next to it) and what the serve
// layer stores under the plan fingerprint.
type FragmentIndex struct {
	FormatVersion int `json:"format_version"`
	// Fingerprint is the parent plan's Fingerprint(); every fragment's
	// embedded plan header reproduces it bit for bit.
	Fingerprint string `json:"fingerprint"`
	Shards      int    `json:"shards"`
	Files       int    `json:"files"`
	Dirs        int    `json:"dirs"`
	Bytes       int64  `json:"bytes"`
	// Fragments names each shard's fragment document (basenames, resolved
	// relative to the index location by convention).
	Fragments []string `json:"fragments"`
}

// Encode writes the index as JSON.
func (ix *FragmentIndex) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ix); err != nil {
		return fmt.Errorf("distribute: encoding fragment index: %w", err)
	}
	return nil
}

// DecodeFragmentIndex reads a fragment index written by Encode.
func DecodeFragmentIndex(r io.Reader) (*FragmentIndex, error) {
	var ix FragmentIndex
	if err := json.NewDecoder(r).Decode(&ix); err != nil {
		return nil, fmt.Errorf("distribute: decoding fragment index: %w", err)
	}
	if ix.FormatVersion != FragmentIndexVersion {
		return nil, fmt.Errorf("distribute: fragment index v%d, this build speaks v%d (%w)", ix.FormatVersion, FragmentIndexVersion, fsimage.ErrPlanVersion)
	}
	if ix.Shards != len(ix.Fragments) {
		return nil, fmt.Errorf("distribute: fragment index promises %d shards but names %d fragments (%w)", ix.Shards, len(ix.Fragments), fsimage.ErrManifestIntegrity)
	}
	return &ix, nil
}

// LoadFragmentIndex reads a fragment index file.
func LoadFragmentIndex(path string) (*FragmentIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("distribute: %w", err)
	}
	defer f.Close()
	return DecodeFragmentIndex(f)
}

// FragmentName returns the conventional fragment basename for a shard,
// derived from the index (plan) path's basename.
func FragmentName(planBase string, shard int) string {
	return fmt.Sprintf("%s.frag%d", planBase, shard)
}

// fragmentRouter is the RecordSink that fans one metadata replay out to the
// per-shard fragment encoders: every directory record goes to all of them,
// each file record only to its shard's.
type fragmentRouter struct {
	ctx  context.Context
	part *namespace.Partition
	encs []*docEncoder
	n    int
}

func (r *fragmentRouter) poll() error {
	const cancelCheckStride = 4096
	if r.n%cancelCheckStride == 0 {
		if err := r.ctx.Err(); err != nil {
			return err
		}
	}
	r.n++
	return nil
}

func (r *fragmentRouter) AddDir(d fsimage.DirRecord) error {
	if err := r.poll(); err != nil {
		return err
	}
	for _, e := range r.encs {
		if err := e.AddDir(d); err != nil {
			return err
		}
	}
	return nil
}

func (r *fragmentRouter) AddFile(f fsimage.File) error {
	if err := r.poll(); err != nil {
		return err
	}
	return r.encs[r.part.ShardOf(f.DirID)].AddFile(f)
}

// PartitionPlan builds a partitioned plan: the request's shard count
// (Partition, or MaxShards) fragments, each a self-contained shard document
// written to the writer open returns for it. Fragments are byte-identical
// to slicing the monolithic plan file (DecodePlanShard → ShardView.Encode),
// so every existing consumer — workers, manifests, the serve layer — works
// on them unchanged. The returned plan is the sealed parent header (no
// image retained); its Fingerprint is what each fragment reproduces and
// what an index should record.
//
// Live memory is the compact tree plus one chunk buffer per fragment;
// combined with PlanRequest.Spill the whole build runs in O(dirs) heap.
func PartitionPlan(ctx context.Context, req PlanRequest, open func(shard int) (io.WriteCloser, error)) (*Plan, error) {
	shards, err := req.shardCount()
	if err != nil {
		return nil, err
	}
	m, err := resolvePlanMetadata(ctx, req.config(), shards)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	p, part, err := planScaffold(m, shards, req.ChunkSize)
	if err != nil {
		return nil, err
	}
	// Seal the monolithic chunk chain without writing it anywhere: the
	// fragment headers must carry the exact Chunks/ImageSHA256 the
	// monolithic plan file would, or the fingerprint manifests bind to
	// would diverge between partitioned and single-document planning.
	seal := fsimage.NewChunkEncoder(p.ChunkSize, func(*fsimage.Chunk) error { return nil })
	if err := m.StreamRecords(seal); err != nil {
		return nil, fmt.Errorf("distribute: hashing metadata chunks: %w", err)
	}
	if err := seal.Close(); err != nil {
		return nil, fmt.Errorf("distribute: hashing metadata chunks: %w", err)
	}
	p.Chunks, p.ImageSHA256 = seal.Chunks(), seal.ChainHash()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	encs := make([]*docEncoder, len(p.Shards))
	wcs := make([]io.WriteCloser, len(p.Shards))
	closeAll := func() {
		for _, wc := range wcs {
			if wc != nil {
				wc.Close()
			}
		}
	}
	for s := range encs {
		wc, err := open(s)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("distribute: opening fragment %d: %w", s, err)
		}
		wcs[s] = wc
		if encs[s], err = newShardDocEncoder(p, s, wc); err != nil {
			closeAll()
			return nil, err
		}
	}
	router := &fragmentRouter{ctx: ctx, part: part, encs: encs}
	if err := m.StreamRecords(router); err != nil {
		closeAll()
		return nil, fmt.Errorf("distribute: routing records to fragments: %w", err)
	}
	for s, e := range encs {
		if err := e.Close(); err != nil {
			closeAll()
			return nil, fmt.Errorf("distribute: sealing fragment %d: %w", s, err)
		}
		wc := wcs[s]
		wcs[s] = nil
		if err := wc.Close(); err != nil {
			closeAll()
			return nil, fmt.Errorf("distribute: closing fragment %d: %w", s, err)
		}
	}
	return p, nil
}

// FragmentMergeResult is the outcome of a fragment-stream merge: the
// canonical image digest (when the manifests carry content hashes) and the
// verified totals. Unlike MergeResult it retains no image — the whole point
// of the fragment pipeline is that no node ever holds one.
type FragmentMergeResult struct {
	// Digest is the canonical image digest, empty when the manifests carry
	// no content hashes (hashing disabled fleet-wide).
	Digest string
	// Fingerprint is the plan fingerprint every fragment and manifest bound.
	Fingerprint string
	Dirs        int
	Files       int
	Bytes       int64
}

// dirsum folds a decoded fragment's directory table into a hash so sibling
// fragments' trees can be cross-checked cheaply.
func dirsum(tree *namespace.Tree) string {
	h := sha256.New()
	for i := range tree.Dirs {
		d := &tree.Dirs[i]
		fmt.Fprintf(h, "%d %d %q %v %g\n", d.ID, d.Parent, d.Name, d.Special, d.Bias)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fragmentStream is one decoding goroutine's channel bundle.
type fragmentStream struct {
	files chan fsimage.File
	done  chan error
	view  *ShardView
}

// MergeFragments verifies a complete partitioned run — K fragment documents
// plus the K worker manifests produced against them — and reproduces the
// canonical image digest without materializing an image: fragment 0's
// directory stream seeds a DigestBuilder, the K file streams are merged by
// ascending file ID (shards partition the ID space; each stream is
// ascending), and each file's content hash is zipped from its shard's
// manifest. open is called once per shard with the fragment's reader.
//
// Every integrity property the monolithic Merge enforces is enforced here:
// manifest self-hashes, fingerprint binding (all fragments and manifests
// must bind one plan), per-shard totals against the sealed expectations,
// per-file ID/size agreement between fragment and manifest, and the digest
// header totals. Memory is O(dirs + K·chunk).
func MergeFragments(ctx context.Context, open func(shard int) (io.ReadCloser, error), manifests []*Manifest) (*FragmentMergeResult, error) {
	k := len(manifests)
	if k == 0 {
		return nil, fmt.Errorf("distribute: no manifests to merge (%w)", fsimage.ErrInvalidSpec)
	}
	for s, mf := range manifests {
		if mf == nil {
			return nil, fmt.Errorf("distribute: missing manifest for shard %d (%w)", s, fsimage.ErrManifestIntegrity)
		}
		if mf.FormatVersion != FormatVersion {
			return nil, fmt.Errorf("distribute: manifest %d format v%d, this build speaks v%d (%w)", s, mf.FormatVersion, FormatVersion, fsimage.ErrPlanVersion)
		}
		if err := mf.VerifySelf(); err != nil {
			return nil, err
		}
		if mf.Shard != s {
			return nil, fmt.Errorf("distribute: manifest %d records shard %d (%w)", s, mf.Shard, fsimage.ErrManifestIntegrity)
		}
		if mf.ContentHashed != manifests[0].ContentHashed {
			return nil, fmt.Errorf("distribute: manifests mix content-hashed and hashless shards (%w)", fsimage.ErrManifestIntegrity)
		}
	}
	contentHashed := manifests[0].ContentHashed

	// One goroutine per fragment: decode, stream validated files into a
	// bounded channel, report the finished view. Fragment 0 additionally
	// hands over the plan header and tree the moment its directory stream
	// completes, so the digest fold starts while files still stream.
	type treeReady struct {
		hdr  *Plan
		tree *namespace.Tree
	}
	readyCh := make(chan treeReady, 1)
	abort := make(chan struct{})
	defer close(abort)
	streams := make([]*fragmentStream, k)
	for s := 0; s < k; s++ {
		fs := &fragmentStream{files: make(chan fsimage.File, 256), done: make(chan error, 1)}
		streams[s] = fs
		go func(s int) {
			defer close(fs.files)
			rc, err := open(s)
			if err != nil {
				fs.done <- fmt.Errorf("distribute: opening fragment %d: %w", s, err)
				return
			}
			defer rc.Close()
			var onTree func(*Plan, *namespace.Tree) error
			if s == 0 {
				onTree = func(hdr *Plan, tree *namespace.Tree) error {
					select {
					case readyCh <- treeReady{hdr: hdr, tree: tree}:
						return nil
					case <-abort:
						return ctx.Err()
					}
				}
			}
			view, err := decodeShardDoc(rc, func(f fsimage.File) error {
				select {
				case fs.files <- f:
					return nil
				case <-abort:
					if err := ctx.Err(); err != nil {
						return err
					}
					return fmt.Errorf("distribute: fragment merge aborted")
				}
			}, onTree)
			if err != nil {
				fs.done <- err
				return
			}
			fs.view = view
			fs.done <- nil
		}(s)
	}

	// collect waits for every decoder so no goroutine outlives an error
	// return (the abort channel unblocks their sends).
	fail := func(err error) (*FragmentMergeResult, error) {
		return nil, err
	}

	// Wait for fragment 0's tree (or its failure).
	var hdr *Plan
	var tree *namespace.Tree
	select {
	case r := <-readyCh:
		hdr, tree = r.hdr, r.tree
	case err := <-streams[0].done:
		if err != nil {
			return fail(err)
		}
		// A small fragment 0 can finish decoding before this select runs;
		// its tree is then already buffered and select may pick done first.
		select {
		case r := <-readyCh:
			hdr, tree = r.hdr, r.tree
		default:
			return fail(fmt.Errorf("distribute: fragment 0 delivered no tree (%w)", fsimage.ErrManifestIntegrity))
		}
		// Later code drains done for every stream; put the result back.
		streams[0].done <- nil
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	fingerprint := hdr.Fingerprint()
	if len(hdr.Shards) != k {
		return fail(fmt.Errorf("distribute: plan has %d shards, merge was handed %d manifests (%w)", len(hdr.Shards), k, fsimage.ErrInvalidSpec))
	}

	var builder *fsimage.DigestBuilder
	var curSHA string
	if contentHashed {
		builder = fsimage.NewDigestBuilder(hdr.Dirs, hdr.Files, hdr.Bytes, func(fsimage.File) (string, error) {
			return curSHA, nil
		})
		for i := range tree.Dirs {
			d := &tree.Dirs[i]
			if err := builder.AddDir(fsimage.DirRecord{ID: d.ID, Parent: d.Parent, Name: d.Name, Special: d.Special, Bias: d.Bias}); err != nil {
				return fail(fmt.Errorf("distribute: folding directory digest: %w", err))
			}
		}
	}

	// K-way merge by ascending file ID. heads[s] holds shard s's next file.
	heads := make([]fsimage.File, k)
	has := make([]bool, k)
	next := func(s int) {
		f, ok := <-streams[s].files
		heads[s], has[s] = f, ok
	}
	for s := 0; s < k; s++ {
		next(s)
	}
	cursors := make([]int, k)
	var files int
	var bytes int64
	for {
		best := -1
		for s := 0; s < k; s++ {
			if has[s] && (best < 0 || heads[s].ID < heads[best].ID) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		f := heads[best]
		mf := manifests[best]
		j := cursors[best]
		if j >= len(mf.FileDigests) {
			return fail(fmt.Errorf("distribute: shard %d manifest records %d files, fragment carries more (%w)", best, len(mf.FileDigests), fsimage.ErrManifestIntegrity))
		}
		fd := mf.FileDigests[j]
		if fd.ID != f.ID || fd.Size != f.Size {
			return fail(fmt.Errorf("distribute: shard %d file %d: manifest records id %d size %d, fragment says id %d size %d (%w)",
				best, j, fd.ID, fd.Size, f.ID, f.Size, fsimage.ErrManifestIntegrity))
		}
		if contentHashed {
			if fd.SHA256 == "" {
				return fail(fmt.Errorf("distribute: shard %d manifest is missing the content hash for file %d (%w)", best, fd.ID, fsimage.ErrManifestIntegrity))
			}
			curSHA = fd.SHA256
			if err := builder.AddFile(f); err != nil {
				return fail(fmt.Errorf("distribute: folding file digest: %w", err))
			}
		}
		cursors[best]++
		files++
		bytes += f.Size
		next(best)
	}

	// All channels drained, so every decoder finished: collect results and
	// run the cross-fragment checks.
	sum0 := dirsum(tree)
	for s := 0; s < k; s++ {
		if err := <-streams[s].done; err != nil {
			return fail(err)
		}
		view := streams[s].view
		if got := view.Plan.Fingerprint(); got != fingerprint {
			return fail(fmt.Errorf("distribute: fragment %d binds plan %.12s, fragment 0 binds %.12s (%w)", s, got, fingerprint, fsimage.ErrManifestIntegrity))
		}
		if s > 0 {
			if got := dirsum(view.Tree); got != sum0 {
				return fail(fmt.Errorf("distribute: fragment %d carries a different directory tree than fragment 0 (%w)", s, fsimage.ErrManifestIntegrity))
			}
		}
		mf := manifests[s]
		if mf.PlanFingerprint != fingerprint {
			return fail(fmt.Errorf("distribute: manifest %d was produced against plan %.12s, fragments bind %.12s (%w)", s, mf.PlanFingerprint, fingerprint, fsimage.ErrManifestIntegrity))
		}
		sp := hdr.Shards[s]
		if mf.Dirs != sp.Dirs || mf.Files != sp.Files || mf.Bytes != sp.Bytes {
			return fail(fmt.Errorf("distribute: manifest %d totals (%d dirs, %d files, %d bytes) do not match the plan's shard expectations (%d, %d, %d) (%w)",
				s, mf.Dirs, mf.Files, mf.Bytes, sp.Dirs, sp.Files, sp.Bytes, fsimage.ErrManifestIntegrity))
		}
		if cursors[s] != len(mf.FileDigests) {
			return fail(fmt.Errorf("distribute: shard %d manifest records %d files, fragment carried %d (%w)", s, len(mf.FileDigests), cursors[s], fsimage.ErrManifestIntegrity))
		}
	}
	if files != hdr.Files || bytes != hdr.Bytes {
		return fail(fmt.Errorf("distribute: fragments carried %d files, %d bytes; plan promises %d, %d (%w)", files, bytes, hdr.Files, hdr.Bytes, fsimage.ErrManifestIntegrity))
	}

	res := &FragmentMergeResult{Fingerprint: fingerprint, Dirs: hdr.Dirs, Files: files, Bytes: bytes}
	if contentHashed {
		digest, err := builder.Sum()
		if err != nil {
			return fail(fmt.Errorf("distribute: %w (%w)", err, fsimage.ErrManifestIntegrity))
		}
		res.Digest = digest
	}
	return res, nil
}
