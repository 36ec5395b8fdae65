// Package specflags is the shared flags -> task.Spec adapter for the
// batch CLIs. Every command that runs (or builds circuits for) a task
// registers its circuit-source and run-option flags here, so flag
// names, help text and — critically — defaults cannot drift between
// commands, and CLI defaults are the daemon's defaults by construction:
// both sides read task.DefaultsFor.
package specflags

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/task"
)

// Options selects which flags a command registers. -scale and -seed
// are always registered; everything else is opt-in so commands keep
// their historical surface (e.g. testability has no -workers by
// design, diagnose's screening backend is fixed).
type Options struct {
	// In registers -in (read a .bench file).
	In bool
	// Profile registers -profile with DefaultProfile as its default.
	Profile bool
	// DefaultProfile is the -profile default ("" = none; diagnose uses
	// "s3330", chainsim "s27").
	DefaultProfile string
	// Chains registers -chains.
	Chains bool
	// Workers registers -workers.
	Workers bool
	// ScaleDefault overrides the defaults table's -scale default for
	// commands whose UX wants a different entry point (chainsim 0.05,
	// testability 0.1). Zero keeps the table value.
	ScaleDefault float64
}

// Values holds the parsed flag values for one command. Call Spec after
// flag.Parse to turn them into a task spec.
type Values struct {
	Kind    string
	In      string
	Profile string
	Scale   float64
	Seed    int64
	Chains  int
	Workers int
}

// Register installs the selected flags on fs with defaults from
// task.DefaultsFor(kind) and returns the value holder.
func Register(fs *flag.FlagSet, kind string, opt Options) *Values {
	d := task.DefaultsFor(kind)
	v := &Values{Kind: kind}
	if opt.In {
		fs.StringVar(&v.In, "in", "", "input .bench file")
	}
	if opt.Profile {
		v.Profile = opt.DefaultProfile
		fs.StringVar(&v.Profile, "profile", opt.DefaultProfile,
			"generate this suite profile (or \"s27\")")
	}
	scale := d.Scale
	if opt.ScaleDefault != 0 {
		scale = opt.ScaleDefault
	}
	fs.Float64Var(&v.Scale, "scale", scale, "profile scale factor in (0,1]; smaller = faster")
	fs.Int64Var(&v.Seed, "seed", d.Seed, "generation / insertion / stimulus seed")
	if opt.Chains {
		fs.IntVar(&v.Chains, "chains", d.Chains, "scan chains (0 = size-based default)")
	}
	if opt.Workers {
		fs.IntVar(&v.Workers, "workers", d.Workers,
			fmt.Sprintf("fault-axis worker goroutines (0 = GOMAXPROCS, 1 = serial, at most %d)", d.MaxWorkers))
	}
	return v
}

// Spec assembles the task spec the parsed flags describe. A non-empty
// circuit argument names the circuit directly (fsctest's suite loop)
// and skips the source flags; otherwise -in is read into Spec.Bench
// (the spec stays self-contained and serializable) with the file path
// as the circuit name, falling back to -profile, or an error when the
// command registered source flags and got neither.
func (v *Values) Spec(circuit string) (task.Spec, error) {
	sp := task.Spec{
		Kind:    v.Kind,
		Circuit: circuit,
		Scale:   v.Scale,
		Seed:    v.Seed,
		Chains:  v.Chains,
		Workers: v.Workers,
	}
	if circuit != "" {
		return sp, nil
	}
	switch {
	case v.In != "":
		data, err := os.ReadFile(v.In)
		if err != nil {
			return sp, err
		}
		sp.Circuit = v.In
		sp.Bench = string(data)
	case v.Profile != "":
		sp.Circuit = v.Profile
	default:
		return sp, fmt.Errorf("need -in or -profile")
	}
	return sp, nil
}
