package specflags

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/task"
)

// allFlags registers every optional flag, the widest surface a command
// can ask for.
var allFlags = Options{In: true, Profile: true, Chains: true, Workers: true}

// TestDefaultsMatchDaemon is the anti-drift contract: for every job
// kind, a CLI that parses zero flags must produce a spec that
// normalizes to the same run options as the daemon normalizing a
// zero-valued spec of that kind. Both sides read task.DefaultsFor, so
// a divergence means someone hard-coded a default again.
func TestDefaultsMatchDaemon(t *testing.T) {
	for _, kind := range task.Kinds() {
		fs := flag.NewFlagSet(kind, flag.ContinueOnError)
		v := Register(fs, kind, allFlags)
		if err := fs.Parse(nil); err != nil {
			t.Fatalf("%s: parse: %v", kind, err)
		}
		cli, err := v.Spec("s27")
		if err != nil {
			t.Fatalf("%s: Spec: %v", kind, err)
		}
		if err := cli.Normalize(); err != nil {
			t.Fatalf("%s: normalize CLI spec: %v", kind, err)
		}
		daemon := task.Spec{Kind: kind, Circuit: "s27"}
		if err := daemon.Normalize(); err != nil {
			t.Fatalf("%s: normalize daemon spec: %v", kind, err)
		}
		// Scale is deliberately exempt: the daemon's omitted Scale means
		// "full size" while faultsim/diagnose default their -scale flag
		// to a faster entry point (see task.Defaults).
		if cli.Seed != daemon.Seed {
			t.Errorf("%s: seed: CLI %d, daemon %d", kind, cli.Seed, daemon.Seed)
		}
		if cli.Chains != daemon.Chains {
			t.Errorf("%s: chains: CLI %d, daemon %d", kind, cli.Chains, daemon.Chains)
		}
		if cli.Workers != daemon.Workers {
			t.Errorf("%s: workers: CLI %d, daemon %d", kind, cli.Workers, daemon.Workers)
		}
		if cli.Cycles != daemon.Cycles {
			t.Errorf("%s: cycles: CLI %d, daemon %d", kind, cli.Cycles, daemon.Cycles)
		}
	}
}

// TestFlagDefaultsComeFromTable asserts the rendered flag defaults are
// the table's values, so `-help` output is honest about what a zero
// flag means.
func TestFlagDefaultsComeFromTable(t *testing.T) {
	for _, kind := range task.Kinds() {
		fs := flag.NewFlagSet(kind, flag.ContinueOnError)
		Register(fs, kind, allFlags)
		d := task.DefaultsFor(kind)
		want := map[string]string{
			"scale":   fmt.Sprintf("%g", d.Scale),
			"seed":    fmt.Sprintf("%d", d.Seed),
			"chains":  fmt.Sprintf("%d", d.Chains),
			"workers": fmt.Sprintf("%d", d.Workers),
		}
		for name, def := range want {
			f := fs.Lookup(name)
			if f == nil {
				t.Fatalf("%s: flag -%s not registered", kind, name)
			}
			if f.DefValue != def {
				t.Errorf("%s: -%s default %q, defaults table says %q", kind, name, f.DefValue, def)
			}
		}
		// The hybrid budget is derived from the circuit
		// (engine.ConeThresholdFor) and the evaluator is engine.Auto's
		// choice; no flag or spec field sets either.
		for _, name := range []string{"conethr", "eval"} {
			if fs.Lookup(name) != nil {
				t.Errorf("%s: -%s registered", kind, name)
			}
		}
	}
}

// TestScaleOverride checks the per-command -scale entry points
// (chainsim 0.05, testability 0.1) replace the table default.
func TestScaleOverride(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	Register(fs, task.KindScreen, Options{ScaleDefault: 0.05})
	if got := fs.Lookup("scale").DefValue; got != "0.05" {
		t.Errorf("scale default = %q, want 0.05", got)
	}
}

// TestSpecSources covers the circuit-source resolution order.
func TestSpecSources(t *testing.T) {
	v := &Values{Kind: task.KindScreen}
	if _, err := v.Spec(""); err == nil || !strings.Contains(err.Error(), "need -in or -profile") {
		t.Errorf("no source: err = %v, want need -in or -profile", err)
	}
	v.Profile = "s1423"
	sp, err := v.Spec("")
	if err != nil || sp.Circuit != "s1423" || sp.Bench != "" {
		t.Errorf("profile source: spec %+v, err %v", sp, err)
	}
	sp, err = v.Spec("s27")
	if err != nil || sp.Circuit != "s27" {
		t.Errorf("explicit circuit: spec %+v, err %v", sp, err)
	}
	v.In = "/nonexistent/specflags-test.bench"
	if _, err := v.Spec(""); err == nil {
		t.Error("missing -in file: want error")
	}
}
