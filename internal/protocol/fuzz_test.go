package protocol

// Native fuzz targets for the wire codec. Every decoder must be total — an
// error, never a panic — and canonical: whatever it accepts re-encodes to
// exactly the input bytes. The seed corpus lives in testdata/fuzz; `make
// fuzz-smoke` runs each target for a few seconds.

import (
	"bytes"
	"errors"
	"testing"
)

func FuzzDecodeHeader(f *testing.F) {
	h := Header{Type: TypeUpdateReq, SessionID: 3, SeqNum: 42, FragTotal: 1}
	h.Seal()
	f.Add(h.Encode(nil))
	f.Add(append(h.Encode(nil), "payload"...))
	f.Add(make([]byte, HeaderSize))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, rest, err := DecodeHeader(b)
		if err != nil {
			return
		}
		if enc := h.Encode(nil); !bytes.Equal(enc, b[:HeaderSize]) {
			t.Fatalf("header %v re-encodes to %x, decoded from %x", h, enc, b[:HeaderSize])
		}
		if !bytes.Equal(rest, b[HeaderSize:]) {
			t.Fatalf("payload %x, want %x", rest, b[HeaderSize:])
		}
		m, err := DecodeMessage(b)
		if err != nil || m.Hdr != h || !bytes.Equal(m.Encode(), b) {
			t.Fatalf("DecodeMessage disagrees with DecodeHeader: %v, %v", m.Hdr, err)
		}
	})
}

// dirtyArgs returns an argument scratch whose entries and spare capacity
// hold stale slices, as a reused decoding buffer would.
func dirtyArgs(n, c int) [][]byte {
	args := make([][]byte, c)
	for i := range args {
		args[i] = []byte("stale")
	}
	return args[:n]
}

func sameArgs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

func FuzzDecodeRequest(f *testing.F) {
	f.Add(PutReq([]byte("user00000042"), []byte("value")).Encode())
	f.Add(GetReq([]byte("k")).Encode())
	f.Add(ScanReq([]byte("a"), 128).Encode())
	f.Add(TxnReq([]byte("new-order"), []byte("w1"), nil, []byte("d3")).Encode())
	f.Add([]byte{byte(OpGet), 0x80, 0x00}) // non-minimal arg count
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeRequest(b)
		if err == nil {
			if enc := req.Encode(); !bytes.Equal(enc, b) {
				t.Fatalf("request %v re-encodes to %x, decoded from %x", req, enc, b)
			}
			if req.Op == OpNop || req.Op >= opMax {
				t.Fatalf("accepted unknown op %d", req.Op)
			}
		}
		for _, scratch := range [][][]byte{nil, dirtyArgs(0, 1), dirtyArgs(3, 3), dirtyArgs(2, 300)} {
			into, ierr := DecodeRequestInto(b, scratch)
			if !sameErr(err, ierr) || into.Op != req.Op || !sameArgs(into.Args, req.Args) {
				t.Fatalf("DecodeRequestInto(scratch len %d cap %d) = %v, %v; DecodeRequest = %v, %v",
					len(scratch), cap(scratch), into, ierr, req, err)
			}
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Add(Response{Status: StatusOK, Args: [][]byte{[]byte("k"), []byte("v")}}.Encode())
	f.Add(Response{Status: StatusNotFound}.Encode())
	many := make([][]byte, 256)
	f.Add(Response{Status: StatusOK, Args: many}.Encode())
	f.Add([]byte{byte(StatusOK), 1, 3, 'a', 'b'}) // truncated argument
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := DecodeResponse(b)
		if err == nil {
			if enc := resp.Encode(); !bytes.Equal(enc, b) {
				t.Fatalf("response re-encodes to %x, decoded from %x", enc, b)
			}
		}
		into, ierr := DecodeResponseInto(b, dirtyArgs(2, 4))
		if !sameErr(err, ierr) || into.Status != resp.Status || !sameArgs(into.Args, resp.Args) {
			t.Fatalf("DecodeResponseInto = %v, %v; DecodeResponse = %v, %v", into, ierr, resp, err)
		}
	})
}

// FuzzReassembler fragments payload into chunk-byte pieces and feeds them
// to a Reassembler in the order the schedule bytes pick: duplicates,
// reordering, and (high bit set) foreign fragments whose geometry does not
// match. Foreign fragments must be rejected, the query must complete
// exactly when its last missing fragment lands, and the result must be the
// original payload.
func FuzzReassembler(f *testing.F) {
	f.Add([]byte("hello, reassembler"), uint8(4), uint32(7), []byte{2, 0, 0x81, 1, 1, 3, 4})
	f.Add([]byte{}, uint8(1), uint32(0), []byte{0})
	f.Add(bytes.Repeat([]byte("x"), 100), uint8(9), uint32(0xFFFFFFFE), []byte{0x90, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, payload []byte, chunk uint8, firstSeq uint32, schedule []byte) {
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		msgs := Fragment(TypeUpdateReq, 1, firstSeq, payload, HeaderSize+int(chunk%64)+1)
		r := NewReassembler(firstSeq, uint16(len(msgs)))
		seen := make([]bool, len(msgs))
		got := 0
		var out []byte
		add := func(m Message, foreign bool) {
			res, err := r.Add(m)
			switch {
			case foreign:
				if err == nil || errors.Is(err, ErrIncomplete) {
					t.Fatalf("foreign fragment %v accepted (err %v)", m.Hdr, err)
				}
			case got == len(msgs):
				if err != nil {
					t.Fatalf("fragment %v of a complete query: %v", m.Hdr, err)
				}
				out = res
			case !errors.Is(err, ErrIncomplete):
				t.Fatalf("fragment %v of an incomplete query: %v", m.Hdr, err)
			}
		}
		for _, s := range schedule {
			i := int(s&0x7F) % len(msgs)
			m := msgs[i]
			if s&0x80 != 0 {
				if s&1 == 0 {
					m.Hdr.SeqNum++
				} else {
					m.Hdr.FragTotal++
				}
				add(m, true)
				continue
			}
			if !seen[i] {
				seen[i] = true
				got++
			}
			add(m, false)
			if r.Complete() != (got == len(msgs)) {
				t.Fatalf("Complete() = %v with %d of %d fragments", r.Complete(), got, len(msgs))
			}
		}
		if missing := r.Missing(); len(missing) != len(msgs)-got {
			t.Fatalf("Missing() lists %d fragments, want %d", len(missing), len(msgs)-got)
		}
		for i, m := range msgs {
			if !seen[i] {
				seen[i] = true
				got++
				add(m, false)
			}
		}
		if !r.Complete() || !bytes.Equal(out, payload) {
			t.Fatalf("reassembled %q, want %q", out, payload)
		}
	})
}
