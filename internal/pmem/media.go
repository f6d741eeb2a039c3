package pmem

import "runtime"

// media is a device's one byte image: what a running program reads back.
// It lives outside the Go heap where the platform allows (media_mmap.go), so
// its bytes are released by a finalizer rather than by the collector. Every
// access goes through read and write, which keep the media reachable until
// the copy is done: the finalizer must never unmap an image mid-copy. The
// device never hands out a slice of it.
type media struct {
	b []byte
}

// read fills p from the image at off.
func (m *media) read(p []byte, off int) {
	copy(p, m.b[off:])
	runtime.KeepAlive(m)
}

// write stores p into the image at off.
func (m *media) write(p []byte, off int) {
	copy(m.b[off:], p)
	runtime.KeepAlive(m)
}

// heapMedia is the portable image: a zeroed Go slice.
func heapMedia(n int) *media { return &media{b: make([]byte, n)} }
