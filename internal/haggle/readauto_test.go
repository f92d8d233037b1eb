package haggle

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tveg"
)

func TestReadAutoNativeFormat(t *testing.T) {
	tr := Generate(GenOptions{N: 5, Horizon: 2000}, rand.New(rand.NewSource(1)))
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAuto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != tr.N || len(got.Contacts) != len(tr.Contacts) {
		t.Errorf("native round trip: %d/%d vs %d/%d", got.N, len(got.Contacts), tr.N, len(tr.Contacts))
	}
}

func TestReadAutoGzip(t *testing.T) {
	tr := Generate(GenOptions{N: 5, Horizon: 2000}, rand.New(rand.NewSource(2)))
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if err := tr.Write(gz); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	// sanity: really compressed
	if buf.Bytes()[0] != 0x1f || buf.Bytes()[1] != 0x8b {
		t.Fatal("not gzip output")
	}
	got, err := ReadAuto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != tr.N || len(got.Contacts) != len(tr.Contacts) {
		t.Errorf("gzip round trip: %d contacts vs %d", len(got.Contacts), len(tr.Contacts))
	}
}

func TestReadAutoHeaderless(t *testing.T) {
	in := "# a CRAWDAD-style comment\n3 1 10 20\n0 2 5 30 4.5\n"
	got, err := ReadAuto(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 4 {
		t.Errorf("inferred N = %d, want 4", got.N)
	}
	if got.Horizon != 30 {
		t.Errorf("inferred horizon = %g, want 30", got.Horizon)
	}
	if len(got.Contacts) != 2 {
		t.Fatalf("contacts = %v", got.Contacts)
	}
	// pair normalized, default distance applied
	if got.Contacts[0].I != 1 || got.Contacts[0].J != 3 || got.Contacts[0].Dist != 10 {
		t.Errorf("contact 0 = %+v", got.Contacts[0])
	}
	if got.Contacts[1].Dist != 4.5 {
		t.Errorf("contact 1 dist = %g, want 4.5", got.Contacts[1].Dist)
	}
}

func TestReadAutoHeaderlessErrors(t *testing.T) {
	cases := []string{
		"",               // empty
		"0 0 1 2\n",      // self loop
		"0 1 5 5\n",      // empty interval
		"garbage line\n", // unparseable
		"0 1 5 50 -3\n",  // negative distance
		"0 1 5 50 NaN\n", // NaN distance
		"0 1 5 +Inf 3\n", // infinite end, so an infinite horizon
		"0 1 NaN 9 3\n",  // NaN start
	}
	for _, in := range cases {
		if _, err := ReadAuto(strings.NewReader(in)); err == nil {
			t.Errorf("ReadAuto(%q) should fail", in)
		}
	}
}

func TestReadAutoHeaderlessToTVEG(t *testing.T) {
	in := "0 1 10 20 5\n1 2 15 40 7\n"
	tr, err := ReadAuto(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	g := tr.ToTVEG(0, tveg.DefaultParams(), tveg.Static)
	if g.N() != 3 {
		t.Errorf("N = %d, want 3", g.N())
	}
	if !g.Rho(0, 1, 15) || !g.Rho(1, 2, 20) {
		t.Error("contacts not materialized")
	}
}
