// Package protocol implements the PMNet wire protocol (§IV-A of the paper):
// the PMNet header carried in the application layer of each UDP packet, the
// reserved port range that distinguishes PMNet traffic, MTU fragmentation of
// large queries, and the application-level request codec used by the
// key-value and transactional workloads.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Type distinguishes PMNet packet kinds (§IV-B1).
type Type uint8

const (
	// TypeInvalid is the zero value; never valid on the wire.
	TypeInvalid Type = iota
	// TypeUpdateReq is an update request from a client: PMNet logs it,
	// forwards it, and ACKs the client once it is persistent.
	TypeUpdateReq
	// TypeBypassReq is a read or synchronization request: PMNet forwards it
	// without logging (no early ACK).
	TypeBypassReq
	// TypePMNetACK is the early acknowledgement a PMNet device sends to the
	// client once an update request is persistent in its PM.
	TypePMNetACK
	// TypeServerACK is the server's acknowledgement that it has processed a
	// request; it invalidates the log entries along the path.
	TypeServerACK
	// TypeRetrans is a server-issued retransmission request for a lost
	// packet; a PMNet holding the logged packet answers it directly.
	TypeRetrans
	// TypeCacheResp is a read served from a PMNet device's read cache
	// (§IV-D).
	TypeCacheResp
	// TypeReadResp is the server's reply to a bypass (read) request.
	TypeReadResp
	// TypeRecoverReq is the control message a recovering server sends to a
	// PMNet device to request replay of all logged requests (§IV-E1: "the
	// server polls PMNet for logged requests").
	TypeRecoverReq

	typeMax
)

var typeNames = [...]string{
	TypeInvalid:    "invalid",
	TypeUpdateReq:  "update-req",
	TypeBypassReq:  "bypass-req",
	TypePMNetACK:   "PMNet-ACK",
	TypeServerACK:  "server-ACK",
	TypeRetrans:    "Retrans",
	TypeCacheResp:  "cache-resp",
	TypeReadResp:   "read-resp",
	TypeRecoverReq: "recover-req",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Valid reports whether t is a defined packet type.
func (t Type) Valid() bool { return t > TypeInvalid && t < typeMax }

// PMNet reserves UDP ports 51000–52000 (§IV-A2).
const (
	PortMin = 51000
	PortMax = 52000
)

// IsPMNetPort reports whether a UDP destination port marks PMNet traffic.
func IsPMNetPort(port uint16) bool { return port >= PortMin && port <= PortMax }

// MTU is the default maximum transmission unit (§IV-A3: "a UDP packet
// typically has a maximum transmission unit of 1.5 kB").
const MTU = 1500

// HeaderSize is the encoded size of a PMNet header in bytes.
//
// The paper's header is Type(8b) + SessionID(16b) + SeqNum(32b) +
// HashVal(32b); it underspecifies how multi-packet queries are reassembled,
// so we carry an explicit fragment index/total pair (the paper's library
// "tracks the number of PMNet-ACKs in a similar way", §IV-A3).
const HeaderSize = 16

// Header is the PMNet header (§IV-A1) plus the fragmentation fields our
// software library needs for MTU-sized packets.
type Header struct {
	Type      Type
	SessionID uint16 // client session (connection) identifier
	SeqNum    uint32 // per-session packet order; also dedupe key
	FragIdx   uint16 // fragment index within the query, 0-based
	FragTotal uint16 // number of fragments in the query (≥1)
	HashVal   uint32 // CRC-32 of the header (HashVal field zeroed); PM log index
}

// Errors returned by the codec.
var (
	ErrShortBuffer = errors.New("protocol: buffer too short for PMNet header")
	ErrBadType     = errors.New("protocol: invalid packet type")
	ErrBadHash     = errors.New("protocol: header hash mismatch")
	ErrBadField    = errors.New("protocol: malformed header field")
)

// encodeInto writes the header with the given hash value.
func (h *Header) encodeInto(b []byte, hash uint32) {
	b[0] = byte(h.Type)
	b[1] = 0 // reserved
	binary.BigEndian.PutUint16(b[2:], h.SessionID)
	binary.BigEndian.PutUint32(b[4:], h.SeqNum)
	binary.BigEndian.PutUint16(b[8:], h.FragIdx)
	binary.BigEndian.PutUint16(b[10:], h.FragTotal)
	binary.BigEndian.PutUint32(b[12:], hash)
}

// crcTables are the slicing-by-8 tables for CRC-32 (IEEE): crcTables[0] is
// the classic byte-at-a-time table, and crcTables[k][v] advances the CRC of
// byte v through k further zero bytes, so one lookup per byte of an 8-byte
// word, all independent, replaces eight dependent table steps.
var crcTables = func() *[8][256]uint32 {
	t := new([8][256]uint32)
	t[0] = *crc32.MakeTable(crc32.IEEE)
	for v := range 256 {
		crc := t[0][v]
		for k := 1; k < 8; k++ {
			crc = t[0][byte(crc)] ^ crc>>8
			t[k][v] = crc
		}
	}
	return t
}()

// crcHeader is CRC-32 (IEEE) of exactly one encoded header: two
// slicing-by-8 rounds over the fixed 16 bytes.
func crcHeader(b *[HeaderSize]byte) uint32 {
	t := crcTables
	crc := ^uint32(0)
	for w := 0; w < HeaderSize; w += 8 {
		crc ^= binary.LittleEndian.Uint32(b[w:])
		crc = t[0][b[w+7]] ^ t[1][b[w+6]] ^ t[2][b[w+5]] ^ t[3][b[w+4]] ^
			t[4][crc>>24] ^ t[5][byte(crc>>16)] ^ t[6][byte(crc>>8)] ^ t[7][byte(crc)]
	}
	return ^crc
}

// ComputeHash returns the CRC-32 (IEEE) of the encoded header with both the
// HashVal field and the Type byte zeroed. Excluding Type means every packet
// related to one request — the update-req itself, the server-ACK that
// retires it, a Retrans asking for it — carries the same HashVal, which is
// what lets a PMNet device use HashVal as its PM log index for all of them
// (§IV-B1). The hash still covers SessionID/SeqNum/fragment fields, so it
// doubles as an integrity check on those.
//
// The checksum is computed by the package-local slicing-by-8 crcHeader
// rather than crc32.ChecksumIEEE: the stdlib's assembly kernels make the
// input escape, which would heap-allocate the 16-byte scratch header on
// every Seal and DecodeHeader — one of the hottest allocation sites in the
// simulator — and their setup costs more than a 16-byte input saves. The
// result is bit-identical (same polynomial, same algorithm).
func (h *Header) ComputeHash() uint32 {
	var b [HeaderSize]byte
	h.encodeInto(b[:], 0)
	b[0] = 0 // Type excluded: shared across a request's related packets
	return crcHeader(&b)
}

// Seal fills HashVal from the rest of the header and returns the header for
// chaining.
func (h *Header) Seal() *Header {
	h.HashVal = h.ComputeHash()
	return h
}

// Encode appends the wire form of h to dst and returns the extended slice.
// Encode does not recompute HashVal; call Seal first when constructing
// headers.
func (h *Header) Encode(dst []byte) []byte {
	var b [HeaderSize]byte
	h.encodeInto(b[:], h.HashVal)
	return append(dst, b[:]...)
}

// DecodeHeader parses a PMNet header from the front of b. It verifies the
// type field, the fields the CRC does not pin down (the reserved byte must be
// zero; a fragment index must fall inside a nonzero fragment total) and the
// header CRC, returning the header and the remaining payload bytes.
func DecodeHeader(b []byte) (Header, []byte, error) {
	if len(b) < HeaderSize {
		return Header{}, nil, ErrShortBuffer
	}
	h := Header{
		Type:      Type(b[0]),
		SessionID: binary.BigEndian.Uint16(b[2:]),
		SeqNum:    binary.BigEndian.Uint32(b[4:]),
		FragIdx:   binary.BigEndian.Uint16(b[8:]),
		FragTotal: binary.BigEndian.Uint16(b[10:]),
		HashVal:   binary.BigEndian.Uint32(b[12:]),
	}
	if !h.Type.Valid() {
		return Header{}, nil, fmt.Errorf("%w: %d", ErrBadType, b[0])
	}
	if b[1] != 0 {
		return Header{}, nil, fmt.Errorf("%w: reserved byte %#x", ErrBadField, b[1])
	}
	if h.FragIdx >= h.FragTotal {
		return Header{}, nil, fmt.Errorf("%w: fragment %d of %d", ErrBadField, h.FragIdx, h.FragTotal)
	}
	if h.ComputeHash() != h.HashVal {
		return Header{}, nil, ErrBadHash
	}
	return h, b[HeaderSize:], nil
}

func (h Header) String() string {
	return fmt.Sprintf("%v sess=%d seq=%d frag=%d/%d hash=%08x",
		h.Type, h.SessionID, h.SeqNum, h.FragIdx, h.FragTotal, h.HashVal)
}
