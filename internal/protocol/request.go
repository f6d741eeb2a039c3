package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Op is the application-level operation carried in a request payload. All
// PMNet workloads (PMDK-style KV engines, the Redis-like store, Twitter,
// TPCC) share this codec so that servers can dispatch uniformly and the
// read cache can extract keys from GET/SET requests (§VI-B4).
type Op uint8

const (
	OpNop Op = iota
	// Key-value operations.
	OpGet
	OpPut
	OpDelete
	// Synchronization primitives; always sent as bypass requests so the
	// server enforces multi-client ordering (§III-C).
	OpLockAcquire
	OpLockRelease
	// Transactional / composite operations, interpreted by the workload
	// server handler (TPCC new-order & payment, Twitter post/follow/...).
	OpTxn
	// OpScan is an ordered range scan: Args = [startKey, limit (decimal)].
	// Read-only, so it travels as a bypass request (YCSB workload E).
	OpScan

	opMax
)

var opNames = [...]string{
	OpNop:         "nop",
	OpGet:         "get",
	OpPut:         "put",
	OpDelete:      "delete",
	OpLockAcquire: "lock",
	OpLockRelease: "unlock",
	OpTxn:         "txn",
	OpScan:        "scan",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Mutates reports whether the operation changes server state — the property
// that decides between update-req and bypass-req framing. Lock operations
// mutate server state but MUST travel as bypass requests so ordering is
// enforced at the server (§III-C); the client library handles that.
func (o Op) Mutates() bool {
	switch o {
	case OpPut, OpDelete, OpTxn, OpLockAcquire, OpLockRelease:
		return true
	default:
		return false
	}
}

// Request is an application-level query: an operation plus its arguments
// (key, value, transaction parameters...).
type Request struct {
	Op   Op
	Args [][]byte
}

// Status is the application-level result code carried in responses.
type Status uint8

const (
	StatusOK Status = iota
	StatusNotFound
	StatusLocked // lock acquisition failed; caller must retry
	StatusError
)

var statusNames = [...]string{
	StatusOK:       "ok",
	StatusNotFound: "not-found",
	StatusLocked:   "locked",
	StatusError:    "error",
}

func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Response is the server's application-level reply.
type Response struct {
	Status Status
	Args   [][]byte
}

// Codec errors.
var (
	ErrTruncated = errors.New("protocol: truncated request payload")
	ErrTrailing  = errors.New("protocol: trailing bytes after payload")
	ErrBadOp     = errors.New("protocol: unknown operation")
	ErrVarint    = errors.New("protocol: non-minimal varint")
)

// encodeArgs appends the argument vector: a uvarint count, then each
// argument as a uvarint length and its bytes. Below 128 arguments the count
// is a single byte.
func encodeArgs(dst []byte, args [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(args)))
	for _, a := range args {
		dst = binary.AppendUvarint(dst, uint64(len(a)))
		dst = append(dst, a...)
	}
	return dst
}

// argsSize returns the encoded size of an argument vector, so Encode can
// allocate its output in one shot instead of growing through appends.
func argsSize(args [][]byte) int {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(args)))
	for _, a := range args {
		n += binary.PutUvarint(tmp[:], uint64(len(a))) + len(a)
	}
	return n
}

// uvarint reads a uvarint that must be in its minimal form, so that every
// accepted payload is exactly the bytes Encode produces for it. A minimal
// encoding longer than one byte never ends in a zero byte.
func uvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, ErrTruncated
	}
	if n > 1 && b[n-1] == 0 {
		return 0, 0, ErrVarint
	}
	return v, n, nil
}

// decodeArgs parses an argument vector that must fill b exactly, appending
// the arguments to dst (which may hold stale entries past its length; they
// are overwritten). Each argument takes at least its one-byte length, so a
// count larger than the bytes left is truncated before anything is
// allocated for it.
func decodeArgs(dst [][]byte, b []byte) ([][]byte, error) {
	argc, n, err := uvarint(b)
	if err != nil {
		return nil, err
	}
	if argc > uint64(len(b)-n) {
		return nil, ErrTruncated
	}
	b = b[n:]
	args := dst[:0]
	if args == nil || uint64(cap(args)) < argc {
		args = make([][]byte, 0, argc)
	}
	for i := uint64(0); i < argc; i++ {
		l, n, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		if uint64(len(b)-n) < l {
			return nil, ErrTruncated
		}
		b = b[n:]
		args = append(args, b[:l:l])
		b = b[l:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d", ErrTrailing, len(b))
	}
	return args, nil
}

// Encode serializes the request as a payload.
func (r Request) Encode() []byte {
	out := make([]byte, 0, 1+argsSize(r.Args))
	out = append(out, byte(r.Op))
	return encodeArgs(out, r.Args)
}

// DecodeRequest parses a request payload. The arguments alias b.
func DecodeRequest(b []byte) (Request, error) { return DecodeRequestInto(b, nil) }

// DecodeRequestInto is DecodeRequest with the argument vector built in the
// caller's scratch: args[:0] is reused when its capacity suffices, so a
// caller that keeps the returned Args for its next call decodes without
// allocating. The returned Args is valid until that next call; the argument
// bytes alias b.
func DecodeRequestInto(b []byte, args [][]byte) (Request, error) {
	if len(b) < 1 {
		return Request{}, ErrTruncated
	}
	op := Op(b[0])
	if op == OpNop || op >= opMax {
		return Request{}, fmt.Errorf("%w: %d", ErrBadOp, b[0])
	}
	args, err := decodeArgs(args, b[1:])
	if err != nil {
		return Request{}, err
	}
	return Request{Op: op, Args: args}, nil
}

// Encode serializes the response as a payload.
func (r Response) Encode() []byte {
	out := make([]byte, 0, 1+argsSize(r.Args))
	out = append(out, byte(r.Status))
	return encodeArgs(out, r.Args)
}

// DecodeResponse parses a response payload. The arguments alias b.
func DecodeResponse(b []byte) (Response, error) { return DecodeResponseInto(b, nil) }

// DecodeResponseInto is DecodeResponse with the argument vector built in
// the caller's scratch, under the same rules as DecodeRequestInto.
func DecodeResponseInto(b []byte, args [][]byte) (Response, error) {
	if len(b) < 1 {
		return Response{}, ErrTruncated
	}
	args, err := decodeArgs(args, b[1:])
	if err != nil {
		return Response{}, err
	}
	return Response{Status: Status(b[0]), Args: args}, nil
}

// Convenience constructors for the common shapes.

// GetReq builds a read request for key.
func GetReq(key []byte) Request { return Request{Op: OpGet, Args: [][]byte{key}} }

// PutReq builds an update request storing value under key.
func PutReq(key, value []byte) Request { return Request{Op: OpPut, Args: [][]byte{key, value}} }

// DeleteReq builds a delete request for key.
func DeleteReq(key []byte) Request { return Request{Op: OpDelete, Args: [][]byte{key}} }

// LockReq builds a lock-acquire request for the named lock.
func LockReq(name []byte) Request { return Request{Op: OpLockAcquire, Args: [][]byte{name}} }

// UnlockReq builds a lock-release request for the named lock.
func UnlockReq(name []byte) Request { return Request{Op: OpLockRelease, Args: [][]byte{name}} }

// TxnReq builds a composite transactional request; the first argument names
// the transaction and the rest are its parameters.
func TxnReq(name []byte, params ...[]byte) Request {
	return Request{Op: OpTxn, Args: append([][]byte{name}, params...)}
}

// ScanReq builds an ordered range-scan request starting at start, returning
// at most limit pairs.
func ScanReq(start []byte, limit int) Request {
	return Request{Op: OpScan, Args: [][]byte{start, []byte(fmt.Sprintf("%d", limit))}}
}

// Key returns the primary key of a KV request, or nil when the operation has
// no key (used by the PMNet read cache to index GET/SET traffic).
func (r Request) Key() []byte {
	if len(r.Args) == 0 {
		return nil
	}
	switch r.Op {
	case OpGet, OpPut, OpDelete:
		return r.Args[0]
	default:
		return nil
	}
}
