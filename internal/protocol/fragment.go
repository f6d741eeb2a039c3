package protocol

import (
	"errors"
	"fmt"
)

// Message is one PMNet packet: a sealed header plus its payload fragment.
type Message struct {
	Hdr     Header
	Payload []byte
}

// WireSize returns the bytes this message occupies inside the UDP datagram.
func (m Message) WireSize() int { return HeaderSize + len(m.Payload) }

// Encode returns the datagram body (header followed by payload).
func (m Message) Encode() []byte {
	out := make([]byte, 0, m.WireSize())
	out = m.Hdr.Encode(out)
	return append(out, m.Payload...)
}

// DecodeMessage parses a datagram body into a Message.
func DecodeMessage(b []byte) (Message, error) {
	hdr, rest, err := DecodeHeader(b)
	if err != nil {
		return Message{}, err
	}
	return Message{Hdr: hdr, Payload: rest}, nil
}

// Fragment splits a query payload into MTU-sized PMNet packets (§IV-A3).
// Each fragment consumes one sequence number starting at firstSeq, carries
// the shared session ID and type, and is individually sealed (per-fragment
// HashVal, since each fragment is logged as its own PM entry and ACKed with
// its own PMNet-ACK).
//
// mtu bounds the whole datagram body (header + payload chunk). A zero or
// negative mtu uses the default MTU. Empty payloads produce one fragment.
func Fragment(typ Type, session uint16, firstSeq uint32, payload []byte, mtu int) []Message {
	return AppendFragments(nil, typ, session, firstSeq, payload, mtu)
}

// AppendFragments is Fragment appending to dst, so a caller that reuses one
// scratch slice fragments without allocating. The fragments' payloads alias
// payload.
func AppendFragments(dst []Message, typ Type, session uint16, firstSeq uint32, payload []byte, mtu int) []Message {
	if mtu <= 0 {
		mtu = MTU
	}
	chunk := mtu - HeaderSize
	if chunk <= 0 {
		panic(fmt.Sprintf("protocol: mtu %d leaves no room for payload", mtu))
	}
	total := max((len(payload)+chunk-1)/chunk, 1)
	if total > 0xFFFF {
		panic(fmt.Sprintf("protocol: query needs %d fragments (max 65535)", total))
	}
	for i := 0; i < total; i++ {
		lo := i * chunk
		hi := min(lo+chunk, len(payload))
		h := Header{
			Type:      typ,
			SessionID: session,
			SeqNum:    firstSeq + uint32(i),
			FragIdx:   uint16(i),
			FragTotal: uint16(total),
		}
		h.Seal()
		dst = append(dst, Message{Hdr: h, Payload: payload[lo:hi]})
	}
	return dst
}

// ErrIncomplete is returned by Reassembler.Add while fragments are missing.
var ErrIncomplete = errors.New("protocol: query incomplete")

// Reassembler collects the fragments of one query and yields the full
// payload once every fragment has arrived, tolerating reordering and
// duplicates. The query is identified by its first sequence number.
type Reassembler struct {
	firstSeq uint32
	total    int
	got      int
	parts    [][]byte
}

// NewReassembler starts reassembly for the query whose first fragment
// carries firstSeq and declares fragTotal fragments.
func NewReassembler(firstSeq uint32, fragTotal uint16) *Reassembler {
	if fragTotal == 0 {
		fragTotal = 1
	}
	return &Reassembler{
		firstSeq: firstSeq,
		total:    int(fragTotal),
		parts:    make([][]byte, fragTotal),
	}
}

// Complete reports whether every fragment has been received.
func (r *Reassembler) Complete() bool { return r.got == r.total }

// Missing returns the sequence numbers not yet received.
func (r *Reassembler) Missing() []uint32 {
	var out []uint32
	for i, p := range r.parts {
		if p == nil {
			out = append(out, r.firstSeq+uint32(i))
		}
	}
	return out
}

// Add records a fragment. When the final fragment lands it returns the
// concatenated payload; before that it returns ErrIncomplete. Fragments that
// do not belong to this query are rejected.
func (r *Reassembler) Add(m Message) ([]byte, error) {
	idx := int(m.Hdr.FragIdx)
	if int(m.Hdr.FragTotal) != r.total || idx >= r.total {
		return nil, fmt.Errorf("protocol: fragment %d/%d does not match query of %d fragments",
			idx, m.Hdr.FragTotal, r.total)
	}
	if m.Hdr.SeqNum != r.firstSeq+uint32(idx) {
		return nil, fmt.Errorf("protocol: fragment seq %d inconsistent with first seq %d + idx %d",
			m.Hdr.SeqNum, r.firstSeq, idx)
	}
	if r.parts[idx] == nil {
		p := m.Payload
		if p == nil {
			p = []byte{} // an empty fragment still counts as arrived
		}
		r.parts[idx] = p
		r.got++
	}
	if !r.Complete() {
		return nil, ErrIncomplete
	}
	var n int
	for _, p := range r.parts {
		n += len(p)
	}
	out := make([]byte, 0, n)
	for _, p := range r.parts {
		out = append(out, p...)
	}
	return out, nil
}
