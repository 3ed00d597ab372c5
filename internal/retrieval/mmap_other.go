//go:build !linux

package retrieval

import "os"

// mapFile reads path whole on platforms without the mmap fast path. The
// decoder behaves identically either way; only the residency of the bytes
// differs.
func mapFile(path string) ([]byte, func() error, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, nil, nil
}
