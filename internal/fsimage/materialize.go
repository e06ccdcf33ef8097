package fsimage

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"impressions/internal/content"
	"impressions/internal/namespace"
	"impressions/internal/parallel"
)

// MaterializeOptions controls how an image is written to a real file system.
type MaterializeOptions struct {
	// Registry supplies per-extension content generators. If nil, the default
	// content policy is used.
	Registry *content.Registry
	// Seed drives content generation; the same seed regenerates identical
	// content. If zero, the image spec's seed is used.
	Seed int64
	// MetadataOnly creates directories and empty (truncated to size) files
	// without writing content, which is much faster and sufficient for
	// metadata-only studies.
	MetadataOnly bool
	// DirPerm and FilePerm are the permissions for created entries.
	DirPerm  os.FileMode
	FilePerm os.FileMode
	// Parallelism is the number of concurrent file writers; 0 selects
	// runtime.NumCPU(), 1 forces the serial path. Every file's content is
	// drawn from a stream derived from the seed and the file's ID, so the
	// written bytes are identical at every parallelism level.
	Parallelism int
	// Digests, when non-nil, must have length Image.FileCount(); the SHA-256
	// (hex) of each written file's content is stored at its file ID during
	// the write, saving a second content-generation pass when both the image
	// and its digest are wanted. Slots stay empty with MetadataOnly. Writers
	// fill disjoint slots, so no synchronization is needed.
	Digests []string
	// Context, when non-nil, cancels the materialization: the file writers
	// poll it between files and abort with its error. Written
	// files are left in place (a cancelled shard simply stops), so callers
	// that need a clean tree should write into a staging directory. A nil
	// Context never cancels.
	Context context.Context
}

// ctx returns the cancellation context, defaulting to context.Background().
func (opts MaterializeOptions) ctx() context.Context {
	if opts.Context == nil {
		return context.Background()
	}
	return opts.Context
}

// withDefaults fills in the option defaults; a zero Seed falls back to
// fallbackSeed (callers without an image pass the plan or spec seed
// explicitly).
func (opts MaterializeOptions) withDefaults(fallbackSeed int64) MaterializeOptions {
	if opts.Registry == nil {
		opts.Registry = content.NewRegistry(content.KindDefault)
	}
	if opts.Seed == 0 {
		opts.Seed = fallbackSeed
	}
	if opts.DirPerm == 0 {
		opts.DirPerm = 0o755
	}
	if opts.FilePerm == 0 {
		opts.FilePerm = 0o644
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.NumCPU()
	}
	return opts
}

// normalized fills in the option defaults relative to an image.
func (opts MaterializeOptions) normalized(img *Image) MaterializeOptions {
	return opts.withDefaults(img.Spec.Seed)
}

// Materialize writes the image as a real directory tree rooted at root.
// It returns the number of bytes written. It is MaterializeShardRecords over
// the whole image: every directory, then every file, with opts.Digests
// (when set) indexed by file ID.
func (img *Image) Materialize(root string, opts MaterializeOptions) (int64, error) {
	opts = opts.normalized(img)
	dirs := make([]int, img.Tree.Len())
	for i := range dirs {
		dirs[i] = i
	}
	return MaterializeShardRecords(root, img.Tree, dirs, img.Files, opts, opts.Digests)
}

// MaterializeShardRecords creates the given directories (tree IDs, in
// ascending order so parents precede children) and file records under root
// — the one VFS materialization loop, shared by Image.Materialize and the
// distributed shard workers. The root itself is created if missing, then
// the directories in one serial pass, then the files by up to
// opts.Parallelism concurrent writers over contiguous chunks (content
// streams are keyed by file ID, so the bytes are identical at every level).
// When digests is non-nil it must have length len(files); the SHA-256 (hex)
// of files[i]'s written content is stored at digests[i] (left empty with
// MetadataOnly). opts.Seed is used as given — callers without an image pass
// the plan or spec seed.
func MaterializeShardRecords(root string, tree *namespace.Tree, dirs []int, files []File, opts MaterializeOptions, digests []string) (int64, error) {
	opts = opts.withDefaults(opts.Seed)
	if digests != nil && len(digests) != len(files) {
		return 0, fmt.Errorf("fsimage: digest slice has length %d, want %d", len(digests), len(files))
	}
	if err := os.MkdirAll(root, opts.DirPerm); err != nil {
		return 0, fmt.Errorf("fsimage: creating root %q: %w", root, err)
	}
	var pathBuf []byte
	for _, id := range dirs {
		if id == 0 {
			continue
		}
		pathBuf = appendEntryPath(pathBuf, root, tree, id, "")
		p := string(pathBuf)
		if err := os.MkdirAll(p, opts.DirPerm); err != nil {
			return 0, fmt.Errorf("fsimage: creating directory %q: %w", p, err)
		}
	}
	var (
		written atomic.Int64
		mu      sync.Mutex
		firstEr error
	)
	parallel.RunChunks(opts.Parallelism, len(files), func(lo, hi int) {
		mu.Lock()
		failed := firstEr != nil
		mu.Unlock()
		if failed {
			return // short-circuit remaining chunks after the first error
		}
		var sums []string
		if digests != nil {
			sums = digests[lo:hi]
		}
		n, err := writeFiles(root, tree, files[lo:hi], opts, sums)
		written.Add(n)
		if err != nil {
			mu.Lock()
			if firstEr == nil {
				firstEr = err
			}
			mu.Unlock()
		}
	})
	return written.Load(), firstEr
}

// writeFiles writes a run of file records serially through one content
// writer, polling the options' context between files. One path buffer
// serves every file: the final string for the open syscall is the only
// per-path allocation.
func writeFiles(root string, tree *namespace.Tree, files []File, opts MaterializeOptions, digests []string) (int64, error) {
	ctx := opts.ctx()
	cw := NewContentWriter(opts.Registry, opts.Seed)
	var pathBuf []byte
	var written int64
	for k, f := range files {
		if err := ctx.Err(); err != nil {
			return written, err
		}
		pathBuf = appendEntryPath(pathBuf, root, tree, f.DirID, f.Name)
		var digest *string
		if digests != nil {
			digest = &digests[k]
		}
		if err := writeFile(string(pathBuf), f, opts, cw, digest); err != nil {
			return written, err
		}
		written += f.Size
	}
	return written, nil
}

// filePathIn returns the slash-separated path of a file record relative to
// the tree root.
func filePathIn(tree *namespace.Tree, f File) string {
	dir := tree.Path(f.DirID)
	if dir == "" {
		return f.Name
	}
	return dir + "/" + f.Name
}

// appendEntryPath resets dst to the on-disk path of one image entry — root,
// the directory's tree path, and an optional file name, joined with the OS
// separator — and returns the extended slice. It is the reusable-buffer
// counterpart of filepath.Join(root, filepath.FromSlash(...)) for the
// materialize hot loops.
func appendEntryPath(dst []byte, root string, tree *namespace.Tree, dirID int, name string) []byte {
	dst = append(dst[:0], root...)
	mark := len(dst)
	if dirID > 0 {
		dst = append(dst, os.PathSeparator)
		mark = len(dst)
		dst = tree.AppendPath(dst, dirID)
	}
	if name != "" {
		dst = append(dst, os.PathSeparator)
		dst = append(dst, name...)
	}
	if os.PathSeparator != '/' {
		// Tree paths are slash-separated; convert only the appended region.
		for i := mark; i < len(dst); i++ {
			if dst[i] == '/' {
				dst[i] = os.PathSeparator
			}
		}
	}
	return dst
}

// writerPool recycles the 64 KB bufio.Writers used to write file content, so
// concurrent shard workers stop allocating fresh buffers for every file.
var writerPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(nil, 64*1024) },
}

// writeFile creates one file at its full size: truncated with MetadataOnly,
// otherwise filled by cw. A non-nil digest receives the content SHA-256.
func writeFile(path string, f File, opts MaterializeOptions, cw *ContentWriter, digest *string) error {
	fh, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, opts.FilePerm)
	if err != nil {
		return fmt.Errorf("fsimage: creating file %q: %w", path, err)
	}
	defer fh.Close()
	if opts.MetadataOnly {
		if f.Size > 0 {
			if err := fh.Truncate(f.Size); err != nil {
				return fmt.Errorf("fsimage: truncating %q: %w", path, err)
			}
		}
		return nil
	}
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(fh)
	defer func() {
		bw.Reset(nil) // drop the file reference before pooling
		writerPool.Put(bw)
	}()
	if digest != nil {
		*digest, err = cw.GenerateSum(bw, f)
	} else {
		err = cw.Generate(bw, f)
	}
	if err != nil {
		return fmt.Errorf("fsimage: writing %q: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("fsimage: flushing %q: %w", path, err)
	}
	if err := fh.Close(); err != nil {
		return fmt.Errorf("fsimage: closing %q: %w", path, err)
	}
	return nil
}
