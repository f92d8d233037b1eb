package haggle

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadAuto checks that arbitrary input never panics the trace
// parsers, that every accepted trace is one the graph can hold (N ≥ 1,
// finite horizon, finite Start < End, finite Dist > 0), and that
// anything successfully parsed round-trips through the native writer.
func FuzzReadAuto(f *testing.F) {
	f.Add("# haggle-trace v1 nodes=3 horizon=100\n0 1 10 20 5\n")
	f.Add("0 1 10 20\n1 2 15 40 7\n")
	f.Add("")
	f.Add("# haggle-trace v1 nodes=0 horizon=0\n")
	f.Add("# haggle-trace v1 nodes=-5 horizon=100\n")
	f.Add("\x1f\x8b")
	f.Add("0 0 1 2 3\n")
	f.Add("9999999 1 0 1\n")
	f.Add("0 1 5 50 -3\n")
	f.Add("0 1 5 50 NaN\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadAuto(strings.NewReader(in))
		if err != nil {
			return
		}
		fin := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		if tr.N < 1 {
			t.Fatalf("accepted a trace of %d nodes", tr.N)
		}
		if !fin(tr.Horizon) {
			t.Fatalf("accepted a non-finite horizon %g", tr.Horizon)
		}
		for _, c := range tr.Contacts {
			if !fin(c.Start) || !fin(c.End) || !(c.Start < c.End) || !fin(c.Dist) || !(c.Dist > 0) {
				t.Fatalf("accepted contact %+v", c)
			}
		}
		var buf bytes.Buffer
		if werr := tr.Write(&buf); werr != nil {
			t.Fatalf("parsed trace fails to serialize: %v", werr)
		}
		back, rerr := Read(&buf)
		if rerr != nil {
			t.Fatalf("serialized trace fails to re-parse: %v", rerr)
		}
		if back.N != tr.N || len(back.Contacts) != len(tr.Contacts) {
			t.Fatalf("round trip mismatch: %d/%d vs %d/%d",
				back.N, len(back.Contacts), tr.N, len(tr.Contacts))
		}
	})
}
