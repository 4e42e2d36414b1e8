package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dsplacer/internal/core"
)

func TestRegisterCommonDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := RegisterCommon(fs, 42, "final")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Seed != 42 {
		t.Fatalf("seed %d, want default 42", c.Seed)
	}
	if got := c.Validate(); got != core.ValidateFinal {
		t.Fatalf("validate %v, want ValidateFinal", got)
	}
	stop := c.Start() // no profiling requested: must be a cheap no-op
	stop()
}

func TestRegisterCommonParsesFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := RegisterCommon(fs, 1, "off")
	if err := fs.Parse([]string{"-seed", "9", "-validate", "stages"}); err != nil {
		t.Fatal(err)
	}
	if c.Seed != 9 {
		t.Fatalf("seed %d, want 9", c.Seed)
	}
	if got := c.Validate(); got != core.ValidateEveryStage {
		t.Fatalf("validate %v, want ValidateEveryStage", got)
	}
}

func TestCommonUnknownValidateIsFatal(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := RegisterCommon(fs, 1, "off")
	if err := fs.Parse([]string{"-validate", "bogus"}); err != nil {
		t.Fatal(err)
	}
	status := capture(t)
	c.Validate()
	if *status != 1 {
		t.Fatalf("exit status %d, want 1", *status)
	}
}

func TestCommonWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := RegisterCommon(fs, 1, "off")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop := c.Start()
	for i := 0; i < 1000; i++ {
		_ = i * i
	}
	stop()
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err %v)", p, err)
		}
	}
	// stop is idempotent: the CPU profile handle is cleared on first call.
	stop()
}

// TestCommonStagesRecorder: -stages hands out a recorder for the command
// to pass to its flows; without the flag there is none, so the flows
// record nothing.
func TestCommonStagesRecorder(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want bool
	}{
		{nil, false},
		{[]string{"-stages"}, true},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		c := RegisterCommon(fs, 1, "off")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		stop := c.Start()
		if got := c.Stages != nil; got != tc.want {
			t.Errorf("args %q: recorder present %v, want %v", tc.args, got, tc.want)
		}
		stop()
	}
}

// TestRegisterProfilingOnlyProfiles: the profiling-only registration adds
// -cpuprofile and -memprofile and nothing else.
func TestRegisterProfilingOnlyProfiles(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	RegisterProfiling(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if len(names) != 2 || names[0] != "cpuprofile" || names[1] != "memprofile" {
		t.Fatalf("flags %v, want [cpuprofile memprofile]", names)
	}
}

// TestRegisterCommonWithoutValidate: an empty default validate level (a
// command that runs no flow) registers every shared flag but -validate, so
// passing it is a usage error instead of a silently ignored value.
func TestRegisterCommonWithoutValidate(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := RegisterCommon(fs, 1, "")
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if want := "[cpuprofile memprofile seed stages]"; fmt.Sprint(names) != want {
		t.Fatalf("flags %v, want %s", names, want)
	}
	if err := fs.Parse([]string{"-validate", "bogus"}); err == nil {
		t.Fatal("-validate parsed without being registered")
	}
	if err := fs.Parse([]string{"-seed", "4", "-stages"}); err != nil || c.Seed != 4 {
		t.Fatalf("parse: err %v, seed %d", err, c.Seed)
	}
}
