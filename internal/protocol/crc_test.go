package protocol

import (
	"hash/crc32"
	"math/rand"
	"testing"

	"pmnet/internal/raceflag"
)

// TestComputeHashMatchesStdlib checks the slicing-by-8 header CRC against
// crc32.ChecksumIEEE over the same 16 bytes (Type and HashVal zeroed) on
// random headers, plus the all-zero and all-ones field extremes.
func TestComputeHashMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	hdrs := []Header{
		{},
		{Type: Type(0xff), SessionID: 0xffff, SeqNum: 0xffffffff, FragIdx: 0xffff, FragTotal: 0xffff, HashVal: 0xffffffff},
	}
	for range 10000 {
		hdrs = append(hdrs, Header{
			Type:      Type(r.Intn(256)),
			SessionID: uint16(r.Uint32()),
			SeqNum:    r.Uint32(),
			FragIdx:   uint16(r.Uint32()),
			FragTotal: uint16(r.Uint32()),
			HashVal:   r.Uint32(),
		})
	}
	for _, h := range hdrs {
		var b [HeaderSize]byte
		h.encodeInto(b[:], 0)
		b[0] = 0
		if got, want := h.ComputeHash(), crc32.ChecksumIEEE(b[:]); got != want {
			t.Fatalf("%v: ComputeHash = %08x, crc32.ChecksumIEEE = %08x", h, got, want)
		}
	}
}

// TestSealDecodeHeaderAllocs pins the header hash's callers to zero
// allocations: the 16-byte scratch header must stay on the stack.
func TestSealDecodeHeaderAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	h := Header{Type: TypeUpdateReq, SessionID: 7, SeqNum: 42, FragTotal: 1}
	var wire [HeaderSize]byte
	if got := testing.AllocsPerRun(100, func() {
		h.SeqNum++
		h.Seal()
		h.encodeInto(wire[:], h.HashVal)
		if _, _, err := DecodeHeader(wire[:]); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Seal+DecodeHeader allocated %.1f objects, want 0", got)
	}
}

// BenchmarkComputeHash measures one header CRC.
func BenchmarkComputeHash(b *testing.B) {
	h := Header{Type: TypeUpdateReq, SessionID: 7, FragTotal: 1}
	var sink uint32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.SeqNum = uint32(i)
		sink ^= h.ComputeHash()
	}
	_ = sink
}
