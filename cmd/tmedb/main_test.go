package main

import (
	"strings"
	"testing"
	"time"
)

// validFlags returns a flagConfig mirroring the flag defaults, which
// must always validate.
func validFlags() flagConfig {
	return flagConfig{
		n: 20, src: 0, delay: 2000, trials: 1000, workers: 1,
		level: 2, auditCases: 250,
	}
}

func TestValidateFlagsDefaultsOK(t *testing.T) {
	if err := validateFlags(validFlags()); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
}

// TestValidateFlagsRejections pins the upfront validation (ISSUE 4
// satellite f): structurally bad invocations must fail with one clear
// message before any trace IO or planning starts.
func TestValidateFlagsRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*flagConfig)
		wantSub string
	}{
		{"zero n", func(c *flagConfig) { c.n = 0 }, "-n"},
		{"negative n", func(c *flagConfig) { c.n = -3 }, "-n"},
		{"negative src", func(c *flagConfig) { c.src = -1 }, "-src"},
		{"zero delay", func(c *flagConfig) { c.delay = 0 }, "-delay"},
		{"negative delay", func(c *flagConfig) { c.delay = -5 }, "-delay"},
		{"negative trials", func(c *flagConfig) { c.trials = -1 }, "-trials"},
		{"negative workers", func(c *flagConfig) { c.workers = -2 }, "-workers"},
		{"zero level", func(c *flagConfig) { c.level = 0 }, "-level"},
		{"zero audit cases", func(c *flagConfig) { c.auditCases = 0 }, "-audit-cases"},
		{"negative deadline", func(c *flagConfig) { c.budget = -time.Second }, "-deadline"},
		{"ladder without deadline", func(c *flagConfig) { c.ladder = "greed,rand" }, "-ladder requires -deadline"},
		{"bad ladder rung", func(c *flagConfig) {
			c.budget = time.Second
			c.ladder = "full,bogus"
		}, "unknown rung"},
		{"deadline with targets", func(c *flagConfig) {
			c.budget = time.Second
			c.targets = "1,2"
		}, "-targets"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := validFlags()
			c.mutate(&cfg)
			err := validateFlags(cfg)
			if err == nil {
				t.Fatalf("%+v validated", cfg)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestValidateFlagsAcceptsLadderWithDeadline(t *testing.T) {
	cfg := validFlags()
	cfg.budget = 2 * time.Second
	cfg.ladder = "full, greed ,rand"
	if err := validateFlags(cfg); err != nil {
		t.Fatalf("ladder with deadline rejected: %v", err)
	}
	cfg.workers = 0 // 0 = GOMAXPROCS is a valid pool request
	cfg.trials = 0  // plan-only runs skip evaluation
	if err := validateFlags(cfg); err != nil {
		t.Fatalf("boundary values rejected: %v", err)
	}
}

func TestParseTargets(t *testing.T) {
	got, err := parseTargets("1, 3,5", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("parseTargets = %v", got)
	}
	if _, err := parseTargets("12", 10); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := parseTargets("1,x", 10); err == nil {
		t.Error("non-numeric target accepted")
	}
}
