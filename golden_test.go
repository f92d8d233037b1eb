package tmedb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestPlannerScheduleGolden pins planned schedules byte for byte: each
// case is the sha256 of Schedule.WriteJSON for one (planner, trace
// seed, N, delay) instance at level 2 with one worker, source 0 and
// t0 = 9000. Solver changes that claim identical output — a faster
// Dijkstra, a new cache, a restructured scan — must leave every hash
// unchanged; a deliberate change of planner output re-records them.
func TestPlannerScheduleGolden(t *testing.T) {
	golden := map[string]string{
		"EEDCB/static/seed1/n10/d2000":         "316b7bde5ee0b2f6bb89122873cf826079f06b4fc11471fe752c862c211225dc",
		"EEDCB/static/seed1/n10/d4000":         "72f971e4823912b97335fae4676fcf88f2034265900ad0f0f67e86ac79ae2871",
		"EEDCB/static/seed1/n20/d2000":         "123a7d9b6b8cc8d4e7447d22bcaaeaaabfca4dd9e8f6f5b3971a4f5dec889abd",
		"EEDCB/static/seed1/n20/d4000":         "e7beb328a40052b6c7bb3c52e380e6b74fe61600bbd939f65e50b89090201984",
		"EEDCB/static/seed1001/n10/d2000":      "59cb5c1001f0ebcd4947cc81de50fbe47b5fea17867d451fb6d7d57b2bfde264",
		"EEDCB/static/seed1001/n10/d4000":      "f81efdc0e174ed1cf0f0152a76038b72f9c715df468e5d9e678047d757cad273",
		"EEDCB/static/seed1001/n20/d2000":      "a0b032c52088dd093a44e2f268ae624660ebbb779139a5f1638e3354459400ef",
		"EEDCB/static/seed1001/n20/d4000":      "df3c72321c7c3234af9594a1b4c4f07076a22d1a50e978b2c0e8e7405ed6276f",
		"EEDCB/static/seed2001/n10/d2000":      "008283bfd7464d76f0c3561a94770ac49799cf6d44512e9e78d6c8ade27981ea",
		"EEDCB/static/seed2001/n10/d4000":      "b5ae2009946ee32af6149129d051cd905c76e791271a74f84d70da5957b0ce43",
		"EEDCB/static/seed2001/n20/d2000":      "73560cbce85469661fb171a5a0ca7263242295412b5aecf089246d5124a096ec",
		"EEDCB/static/seed2001/n20/d4000":      "766cbed442bcd6963d26ba340a8440f6053419769b8221c18f36c83450b17ec7",
		"FR-EEDCB/rayleigh/seed1/n10/d2000":    "fc99e51a15af12bf7bf619e0f126f9f85ab8be6e5e25c102fcf0925f107db7a6",
		"FR-EEDCB/rayleigh/seed1/n10/d4000":    "8b3b054e7b66ac68e6602a7295f31727f4ecdf7dd0226fba55f20bd5076e94dc",
		"FR-EEDCB/rayleigh/seed1/n20/d2000":    "049fedb51374d8c0b946cc2851c8b1ab7ee079ac3f91f0a8c7d0cb7fed937b8e",
		"FR-EEDCB/rayleigh/seed1/n20/d4000":    "9c0c5f6104540cdef991ec0c1a190811be1abc351adfda4cb997fa53ee01a6fe",
		"FR-EEDCB/rayleigh/seed1001/n10/d2000": "8f642f7535b8be7ae12febbba4c014420926fbeb428a04bd1d21eb675525e0a6",
		"FR-EEDCB/rayleigh/seed1001/n10/d4000": "7a60dda6bb40ba41edad60ddfa168768a8fa54e3541fe13dd024aa8e7c087eed",
		"FR-EEDCB/rayleigh/seed1001/n20/d2000": "e4e9ba0c9edd3ff1f89029430393e13b703874d334e1e45283fda45b86b28b2a",
		"FR-EEDCB/rayleigh/seed1001/n20/d4000": "e13b22e57e3c3aa45671ce1559d3c1582639c3aea7353ffc56295a7b981e3e47",
		"FR-EEDCB/rayleigh/seed2001/n10/d2000": "e4f59956154b222f3ac8b3ba25f12fd65d0c2294a37cd685ac5070c08d827f4f",
		"FR-EEDCB/rayleigh/seed2001/n10/d4000": "61b0122008fd7764c966ad6518e1e29eead852bc5773eced1c3aedd33002c49f",
		"FR-EEDCB/rayleigh/seed2001/n20/d2000": "23a1612f89896d94231d41139e7c3bb5b47afa0971156b2f9a95d130711bfaee",
		"FR-EEDCB/rayleigh/seed2001/n20/d4000": "49191ff9df6222ddf703d66f89b064eec99d529953c839055729834606146c63",
	}
	planners := []struct {
		model Model
		plan  Scheduler
	}{
		{Static, EEDCB{Level: 2, Workers: 1}},
		{Rayleigh, FREEDCB{Level: 2, Workers: 1}},
	}
	for _, p := range planners {
		for _, seed := range []int64{1, 1001, 2001} {
			for _, n := range []int{10, 20} {
				for _, delay := range []float64{2000, 4000} {
					name := fmt.Sprintf("%s/%s/seed%d/n%d/d%g", p.plan.Name(), p.model, seed, n, delay)
					g := GenerateTrace(TraceOptions{N: n}, seed).ToTVEG(0, DefaultParams(), p.model)
					s, err := p.plan.Schedule(g, 0, 9000, 9000+delay)
					if onlyRealErr(err) != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(s) == 0 {
						t.Fatalf("%s: empty schedule", name)
					}
					var buf bytes.Buffer
					if err := s.WriteJSON(&buf); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					sum := sha256.Sum256(buf.Bytes())
					if got, want := hex.EncodeToString(sum[:]), golden[name]; got != want {
						t.Errorf("%s: schedule sha256 %s, want %s", name, got, want)
					}
				}
			}
		}
	}
}
