package pmnet

// Allocation pins for a full request round trip through a PMNet-Switch
// testbed: client library, netsim, the device's log and cache, and the
// server library. Every per-request record on the way is pooled, so once the
// pools are warm an update allocates exactly one object — its encoded
// payload, which the in-flight packets, the PM log and the server all share
// and which therefore must be fresh and immutable.

import (
	"testing"

	"pmnet/internal/raceflag"
)

// roundTrip issues one request on session 0, runs the testbed to quiescence
// and fails the test unless the request completed.
func roundTrip(t *testing.T, tb *Testbed, update bool, req Request) func() {
	t.Helper()
	var done bool
	cb := func(r Result) { done = r.Err == nil }
	return func() {
		done = false
		if update {
			tb.Session(0).SendUpdate(req, cb)
		} else {
			tb.Session(0).Bypass(req, cb)
		}
		tb.Run()
		if !done {
			t.Fatal("request did not complete")
		}
	}
}

// warm runs fn enough times to fill every pool the round trip draws from.
func warm(fn func()) {
	for i := 0; i < 100; i++ {
		fn()
	}
}

func TestUpdateRoundTripAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	tb := NewTestbed(Config{Design: PMNetSwitch, Seed: 1, Handler: IdealHandler{}})
	update := roundTrip(t, tb, true, PutReq([]byte("user00000042"), make([]byte, 1000)))
	warm(update)
	got := testing.AllocsPerRun(200, update)
	t.Logf("update round trip: %.1f allocs", got)
	if got > 1 {
		t.Errorf("update round trip allocated %.1f objects, want ≤ 1 (the encoded payload)", got)
	}
}

// TestBypassRoundTripAllocs pins the read path. A GET allocates its encoded
// request, the encoded response and the response's decoded argument vector
// (Result.Args belongs to the caller, so the client cannot reuse it). A
// server-served GET from IdealHandler carries no response arguments, so its
// argument vector is empty and costs nothing.
func TestBypassRoundTripAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	tb := NewTestbed(Config{Design: PMNetSwitch, Seed: 1, Handler: IdealHandler{}, CacheEntries: 16})
	roundTrip(t, tb, true, PutReq([]byte("hot"), make([]byte, 100)))()
	for _, tc := range []struct {
		name string
		key  string
		want float64
	}{
		{"cache-served", "hot", 3},
		{"server-served", "cold", 2},
	} {
		get := roundTrip(t, tb, false, GetReq([]byte(tc.key)))
		warm(get)
		got := testing.AllocsPerRun(200, get)
		t.Logf("%s GET: %.1f allocs", tc.name, got)
		if got > tc.want {
			t.Errorf("%s GET allocated %.1f objects, want ≤ %.0f", tc.name, got, tc.want)
		}
	}
	st := tb.Devices[0].Stats()
	if st.CacheResponses == 0 {
		t.Fatal("no GET was served by the cache")
	}
}
