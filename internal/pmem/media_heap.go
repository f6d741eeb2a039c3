//go:build !linux || race

package pmem

// newMedia allocates the image on the Go heap. This covers platforms without
// the anonymous-mapping path and every -race build, where the detector must
// see device bytes to check accesses to them.
func newMedia(n int) *media { return heapMedia(n) }
