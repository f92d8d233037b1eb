package tmedb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
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

// TestExecutorOutputsGolden pins every executor's output bit for bit:
// each case is the sha256 over the Float64bits (and integer counts) of
// one executor's results on one planned schedule — EEDCB, FR-EEDCB,
// FR-GREED and FR-RAND on the N=20 Rayleigh graphs of trace seeds 1 and
// 1001, source 0, t0 = 9000, delay 2000. Executor changes that claim
// identical output — a cheaper random source, a leaner event list —
// must leave every hash unchanged.
func TestExecutorOutputsGolden(t *testing.T) {
	golden := map[string]string{
		"EEDCB/seed1/evaluate-w1":                  "4d09ba5599f045ac96a91bbc98b31b33611604132981f6e14cb1a9ac8a91012e",
		"EEDCB/seed1/evaluate-w3":                  "1439887d03a6d3f0dbcc38b2833ca66bfe2e5061e556baf6750fac6bce280a38",
		"EEDCB/seed1/des-interference=true":        "94d75065d0f7ffa7666e24fb5cf2655748ad303c5649a164791ebd112cf3baf2",
		"EEDCB/seed1/des-interference=false":       "f58c0871e65b5ee741b7c2b719de3bdc950d91d791b8abd508835a7a0d9247b8",
		"EEDCB/seed1/interference":                 "13a5b0efc402373d6d89494e9e8ff26854ea6fdfac07c1e740105eaf08b3d06d",
		"EEDCB/seed1/reference":                    "94ec8fc135afb16e1d8d34e766d676abad44c459da3f7bf45b5818ce1942c6e4",
		"FR-EEDCB/seed1/evaluate-w1":               "93d04f9e76a52bfc2cee16def13fce3aebb660871acef5efcfcf1cff21dc08b5",
		"FR-EEDCB/seed1/evaluate-w3":               "e0d56354962fdd5334110ee44187e5446f67a8f6aec321b97961478876a56647",
		"FR-EEDCB/seed1/des-interference=true":     "f8b55cd707f8cce4d79134293743802f713d7981cf6377f4222aea98aa7317f0",
		"FR-EEDCB/seed1/des-interference=false":    "b6fb3b337f90b9bb3a99414968eaccac3d195f971572a234da79c822ea2bb859",
		"FR-EEDCB/seed1/interference":              "b198472f0ad49aac7add6f75a95fcca1cf2015ff5c3ec8668d584f9cf61f6390",
		"FR-EEDCB/seed1/reference":                 "d48ff176720c388b4547281e36d10a3a0510544f32768b8dc75d906ce537eed3",
		"FR-GREED/seed1/evaluate-w1":               "5dc2020f44633398cb6f9908b8d175e70e8d8ace2a5579ee5715db6844cce752",
		"FR-GREED/seed1/evaluate-w3":               "ede018bdaa0454c0bb0e0e884bae58e01e0d43bae95e747a1d57ee8ee9e6398c",
		"FR-GREED/seed1/des-interference=true":     "593e0f45a065807ec9347df26bb7f7f0fda2b4dc6715e2824f5803896b14f4de",
		"FR-GREED/seed1/des-interference=false":    "f5bcc1a2b10596c815269db03b20e43a82ecdf6ff3862b7ce611a15d9a347cbe",
		"FR-GREED/seed1/interference":              "5456188b338750dce4526f4a0b78f49fd49dd30e04c4afaeb2489c3e5790781b",
		"FR-GREED/seed1/reference":                 "2ac6b61d3ee8c5a6659bfe1276e56391bfa7cbda8e0c01f11627936cd9d12f30",
		"FR-RAND/seed1/evaluate-w1":                "1b2117090e72b735494991cb7ccef0125f1d7f1ccd2246997bf15d029c4bad4e",
		"FR-RAND/seed1/evaluate-w3":                "657dd4821c891ec50e5cefc2244c990eb6ba83a74aed713f6a5ef8c10483fc61",
		"FR-RAND/seed1/des-interference=true":      "2e3f38a3ed5ca7786924a131d140fe61efe277d57d476dc237afb075466f3bb5",
		"FR-RAND/seed1/des-interference=false":     "728f957dd3030089fd4dc226a2986abc131d2301532712723f28452823f9fc87",
		"FR-RAND/seed1/interference":               "0ff5462ea6bd8780a497924b1b38549556534dba921cf91b1819b8e8030fb776",
		"FR-RAND/seed1/reference":                  "f21ccd7636eb7011efa1664d76e866997a2b54b4b5f7dd5f300de1a470010d43",
		"EEDCB/seed1001/evaluate-w1":               "ee3f03e65877d23be5fa99a9796887b66b9b7931a39ad5b2141f01489b57bfb1",
		"EEDCB/seed1001/evaluate-w3":               "87821626a2131da6f2c81785617e2e01735658ebaec5d578847c99ae6d1fd956",
		"EEDCB/seed1001/des-interference=true":     "66544330a90cf461462d8043e2d7f8e0fbec333fd5e4e121a4ecd630f3fdbca7",
		"EEDCB/seed1001/des-interference=false":    "8e133491b7959961a877ed739a22940dc82c2a39f42c6a01f9eca129c49ce79c",
		"EEDCB/seed1001/interference":              "297ef522f9ec1f43cf760004d48ed48a4bca024d5015a327a4e750ac441e1194",
		"EEDCB/seed1001/reference":                 "4334286002a58d34cb76755ddc54de47a69535d116078b6e34f05f58dcd57924",
		"FR-EEDCB/seed1001/evaluate-w1":            "970cd647d851ca6b466468ca5cc091b975b579069854be69630d74c33d9cda00",
		"FR-EEDCB/seed1001/evaluate-w3":            "4aae7674cf9d4417091a441f7fda47716bf92d8d1cb20dc7919c52654f1e4ef6",
		"FR-EEDCB/seed1001/des-interference=true":  "581f6f5772ef5e70b4c07cb8f83d0385abc92c153f4e87c0b691d7ed6cc93ff4",
		"FR-EEDCB/seed1001/des-interference=false": "65b93108086fcdf187f7e2d3afb2ff6d4f5653bdf70748e0aea4306de1bcd524",
		"FR-EEDCB/seed1001/interference":           "757921a8d557dd00b355d3ee655bf6a1abe35ddb8641816476b3084f17355ce7",
		"FR-EEDCB/seed1001/reference":              "ce681793af7f37a2eb91601d4e23b6f4ba0e39f83318db75a59c85e0f4306be8",
		"FR-GREED/seed1001/evaluate-w1":            "a15cfc98b4f59f07854d4d0ca5441aaf60b82237cfd9cb51d841836268b69949",
		"FR-GREED/seed1001/evaluate-w3":            "63b408580952f0a9c05820e6e8842ddeb20eb50d882851ead0d709d19125217c",
		"FR-GREED/seed1001/des-interference=true":  "8138c77b313304e72b3cb0424cdddc31f9d056c8cf1f66c61d9a585defbdb878",
		"FR-GREED/seed1001/des-interference=false": "162888ea06e619447ae5f7dddc5a1aa16fe55eb481f8a30c40ae2f498f7ff375",
		"FR-GREED/seed1001/interference":           "0aebd7682f6377266e847e437b24d2f11fd3d667c286edee8dc948e5347621a7",
		"FR-GREED/seed1001/reference":              "f81a8b722a82bcb25b54b09b0a5a11050942a89ccbbe4d70b5c729ec1840fe2a",
		"FR-RAND/seed1001/evaluate-w1":             "c6fc568e420cf35834ba4319c7bdbdc9d452f49d82edef4937720cfc0963fd48",
		"FR-RAND/seed1001/evaluate-w3":             "d55ea7859aab90a6974e61dfc9c3618cc911e31bdbaba36cc5bb37e2f11f21b7",
		"FR-RAND/seed1001/des-interference=true":   "3ba86c066cdbd523a23923f70dddda29d7682ac8a8eb6242a54051dfbd9e66e7",
		"FR-RAND/seed1001/des-interference=false":  "a21bb366e76bcb528eb14401cf39357d30b0549667926f18be2cda48db0f6f8f",
		"FR-RAND/seed1001/interference":            "0068572827f16e7897dbb545005acfb0efb6b35810f310d86d6c786785265d03",
		"FR-RAND/seed1001/reference":               "cb1e8fd4b836cee61284f6df837bc75dc4955d7f584c461f6c9cddc117f881bf",
	}
	const (
		t0      = 9000.0
		airtime = 0.008
	)
	for _, seed := range []int64{1, 1001} {
		g := GenerateTrace(TraceOptions{N: 20}, seed).ToTVEG(0, DefaultParams(), Rayleigh)
		for _, plan := range []Scheduler{
			EEDCB{Level: 2, Workers: 1},
			FREEDCB{Level: 2, Workers: 1},
			FRGreedy{Workers: 1},
			FRRandom{Seed: seed, Workers: 1},
		} {
			s, err := plan.Schedule(g, 0, t0, t0+2000)
			if onlyRealErr(err) != nil {
				t.Fatalf("%s seed %d: %v", plan.Name(), seed, err)
			}
			check := func(executor string, write func(w *bitWriter)) {
				t.Helper()
				name := fmt.Sprintf("%s/seed%d/%s", plan.Name(), seed, executor)
				w := bitWriter{h: sha256.New()}
				write(&w)
				if got, want := hex.EncodeToString(w.h.Sum(nil)), golden[name]; got != want {
					t.Errorf("%s: sha256 %s, want %s", name, got, want)
				}
			}
			for _, workers := range []int{1, 3} {
				check(fmt.Sprintf("evaluate-w%d", workers), func(w *bitWriter) {
					r := EvaluateParallel(g, s, 0, 500, seed, workers)
					w.floats(r.PlannedEnergy, r.MeanEnergy, r.MeanDelivery, r.StdDelivery)
					w.ints(r.Trials, r.Workers)
				})
			}
			// With interference each packet holds the channel for the
			// benchmark's airtime. Without it the airtime defaults to the
			// graph's τ = 0: a reception completes at its transmission's
			// instant, and only the event classes let an equal-time relay
			// forward it.
			for _, c := range []struct {
				opts ExecOptions
				runs int
			}{
				{ExecOptions{Interference: true, Airtime: airtime}, 50},
				{ExecOptions{}, 20},
			} {
				check(fmt.Sprintf("des-interference=%t", c.opts.Interference), func(w *bitWriter) {
					for j := 0; j < c.runs; j++ {
						res, err := ExecuteDES(g, s, 0, t0, c.opts, seed*1000+int64(j))
						if err != nil {
							t.Fatal(err)
						}
						w.floats(res.InformedAt...)
						w.floats(res.ConsumedEnergy)
						w.ints(res.Delivered, res.Collisions)
					}
				})
			}
			check("interference", func(w *bitWriter) {
				w.floats(EvaluateWithInterference(g, s, 0, airtime, 50, seed))
			})
			check("reference", func(w *bitWriter) {
				tr := ReferenceExecute(g, s, 0, t0, false)
				w.floats(tr.RecvAt...)
				w.floats(tr.ConsumedEnergy)
				w.ints(tr.Delivered)
				for _, fired := range tr.Fired {
					w.ints(map[bool]int{false: 0, true: 1}[fired])
				}
			})
		}
	}
}

// bitWriter feeds exact bit patterns into a hash.
type bitWriter struct{ h hash.Hash }

func (w *bitWriter) floats(xs ...float64) {
	for _, x := range xs {
		w.h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
	}
}

func (w *bitWriter) ints(xs ...int) {
	for _, x := range xs {
		w.h.Write(binary.LittleEndian.AppendUint64(nil, uint64(x)))
	}
}
