package pmnet

// The server library hands handlers argument slices that alias the request
// payload the client encoded: no layer between the client and the handler
// copies it. That is only sound while payload buffers stay immutable and are
// never pooled. This test pins it end to end, on every path a payload takes
// under loss: the first transmission, client resends, Retrans replies served
// from the PMNet log, and TTL repair resends.

import (
	"bytes"
	"fmt"
	"testing"

	"pmnet/internal/dataplane"
	"pmnet/internal/protocol"
)

// keptArgs is a handler that keeps every argument slice it is handed,
// together with the key it read at the time.
type keptArgs struct {
	kept []keptPut
}

type keptPut struct {
	key      string // copied when handled
	keyArg   []byte // aliases the payload
	valueArg []byte // aliases the payload
}

func (h *keptArgs) Handle(req Request) (Response, Time) {
	if req.Op == protocol.OpPut {
		h.kept = append(h.kept, keptPut{key: string(req.Args[0]), keyArg: req.Args[0], valueArg: req.Args[1]})
	}
	return Response{Status: StatusOK}, 2 * Microsecond
}

func TestHandlerArgsStayImmutableUnderLoss(t *testing.T) {
	const clients, perClient = 4, 150
	dev := dataplane.DefaultConfig()
	dev.EntryTTL = 400 * Microsecond
	tb := NewTestbed(Config{
		Design:   PMNetSwitch,
		Clients:  clients,
		Seed:     5,
		LossRate: 0.1,
		Timeout:  150 * Microsecond,
		Device:   dev,
	})
	h := &keptArgs{}
	tb.Server.SetHandler(h)
	sent := make(map[string][]byte)
	for c := 0; c < clients; c++ {
		c := c
		var issue func(k int)
		issue = func(k int) {
			if k >= perClient {
				return
			}
			key := fmt.Sprintf("c%d-k%03d", c, k)
			value := bytes.Repeat([]byte(key), 40)
			sent[key] = value
			tb.Session(c).SendUpdate(PutReq([]byte(key), value), func(Result) { issue(k + 1) })
		}
		issue(0)
	}
	tb.Run()

	var resends uint64
	for c := 0; c < clients; c++ {
		resends += tb.Session(c).Stats().Resends
	}
	st := tb.Devices[0].Stats()
	if resends == 0 || st.RetransAnswered == 0 || st.TTLResends == 0 {
		t.Fatalf("loss did not exercise every resend path: client resends %d, Retrans replies %d, TTL resends %d",
			resends, st.RetransAnswered, st.TTLResends)
	}
	t.Logf("client resends %d, Retrans replies %d, TTL resends %d, handled %d",
		resends, st.RetransAnswered, st.TTLResends, len(h.kept))
	if len(h.kept) < clients*perClient {
		t.Fatalf("handler saw %d updates, want at least %d", len(h.kept), clients*perClient)
	}
	for i, k := range h.kept {
		want, ok := sent[k.key]
		if !ok {
			t.Fatalf("update %d: handler saw key %q no client sent", i, k.key)
		}
		if string(k.keyArg) != k.key || !bytes.Equal(k.valueArg, want) {
			t.Fatalf("update %d: kept arguments changed after Handle returned: key %q (was %q), value %q",
				i, k.keyArg, k.key, k.valueArg)
		}
	}
}
