//go:build linux

package retrieval

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps path read-only and returns the file bytes plus an unmap
// closer. Mapping rather than reading is what makes node cold-starts
// cheap at corpus scale: the kernel faults pages in lazily, so a node is
// serving as soon as the header and code matrix are warm while the large
// exact-feature tail loads on demand as re-ranks touch it.
func mapFile(path string) ([]byte, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size == 0 {
		// Zero-length mappings are invalid; hand back an empty slice and
		// let the decoder reject the file as truncated.
		return nil, nil, nil
	}
	if size != int64(int(size)) {
		return nil, nil, fmt.Errorf("retrieval: index: %s: %d bytes exceeds address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("retrieval: index: mmap %s: %w", path, err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
