package core

import (
	"context"
	"strings"
	"testing"

	"dsplacer/internal/placer"
	"dsplacer/internal/stage"
)

// TestConfigWithDefaults pins every default withDefaults fills in, so an
// accidental change to the paper-derived constants fails loudly.
func TestConfigWithDefaults(t *testing.T) {
	cases := []struct {
		name  string
		in    Config
		check func(t *testing.T, c Config)
	}{
		{
			name: "zero config gets paper defaults",
			in:   Config{},
			check: func(t *testing.T, c Config) {
				if c.ClockMHz != 150 {
					t.Errorf("ClockMHz %v, want 150", c.ClockMHz)
				}
				if c.Lambda != 100 {
					t.Errorf("Lambda %v, want 100 (paper λ)", c.Lambda)
				}
				if c.Eta != 50 {
					t.Errorf("Eta %v, want 50", c.Eta)
				}
				if c.MCFIterations != 50 {
					t.Errorf("MCFIterations %v, want 50 (paper)", c.MCFIterations)
				}
				if c.Rounds != 2 {
					t.Errorf("Rounds %v, want 2", c.Rounds)
				}
				if _, ok := c.Identifier.(OracleIdentifier); !ok {
					t.Errorf("Identifier %T, want OracleIdentifier", c.Identifier)
				}
			},
		},
		{
			name: "explicit values survive",
			in: Config{
				ClockMHz: 200, Lambda: 10, Eta: 5, MCFIterations: 7,
				Rounds: 3, Seed: 99,
			},
			check: func(t *testing.T, c Config) {
				if c.ClockMHz != 200 || c.Lambda != 10 || c.Eta != 5 ||
					c.MCFIterations != 7 || c.Rounds != 3 {
					t.Errorf("explicit values overwritten: %+v", c)
				}
				if c.Seed != 99 {
					t.Errorf("Seed %v, want 99", c.Seed)
				}
			},
		},
		{
			name: "custom identifier kept",
			in:   Config{Identifier: &GCNIdentifier{}},
			check: func(t *testing.T, c Config) {
				if _, ok := c.Identifier.(*GCNIdentifier); !ok {
					t.Errorf("Identifier %T, want *GCNIdentifier", c.Identifier)
				}
			},
		},
		{
			name: "validate level and recorder pass through untouched",
			in:   Config{Validate: ValidateEveryStage},
			check: func(t *testing.T, c Config) {
				if c.Validate != ValidateEveryStage {
					t.Errorf("Validate %v, want ValidateEveryStage", c.Validate)
				}
				if c.Stages != nil {
					t.Errorf("Stages %v, want nil (nil records nothing)", c.Stages)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.check(t, tc.in.withDefaults())
		})
	}
}

// TestNegativeSettingsRejected: every flow refuses a negative numeric
// setting with an error naming the field, before any stage runs (its
// recorder stays empty). Zero keeps meaning "use the default".
func TestNegativeSettingsRejected(t *testing.T) {
	dev, nl := miniSetup(t)
	fields := []struct {
		name string
		set  func(*Config)
	}{
		{"ClockMHz", func(c *Config) { c.ClockMHz = -150 }},
		{"Lambda", func(c *Config) { c.Lambda = -5 }},
		{"Eta", func(c *Config) { c.Eta = -0.5 }},
		{"MCFIterations", func(c *Config) { c.MCFIterations = -3 }},
		{"Rounds", func(c *Config) { c.Rounds = -1 }},
	}
	flows := []struct {
		name string
		run  func(Config) (*Result, error)
	}{
		{"dsplacer", func(c Config) (*Result, error) { return Run(context.Background(), dev, nl, c) }},
		{"vivado", func(c Config) (*Result, error) {
			return RunBaseline(context.Background(), dev, nl, placer.ModeVivado, c)
		}},
		{"rsad", func(c Config) (*Result, error) { return RunRSAD(context.Background(), dev, nl, c) }},
	}
	for _, fl := range flows {
		for _, f := range fields {
			t.Run(fl.name+"/"+f.name, func(t *testing.T) {
				rec := stage.NewRecorder(nil)
				cfg := Config{MCFIterations: 2, Rounds: 1, Stages: rec}
				f.set(&cfg)
				res, err := fl.run(cfg)
				if err == nil || !strings.Contains(err.Error(), f.name) {
					t.Fatalf("err %v, want an error naming %s", err, f.name)
				}
				if res != nil {
					t.Fatalf("got a %q result for a negative %s", res.Flow, f.name)
				}
				if snap := rec.Snapshot(); len(snap) != 0 {
					t.Fatalf("stages ran before the check: %v", snap)
				}
			})
		}
	}
}
