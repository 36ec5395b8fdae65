package bench

import (
	"bytes"
	"testing"

	"repro/internal/gen"
)

// FuzzParseBench feeds arbitrary text to the parser, the path inline
// .bench netlists in daemon specs take. Parse must never panic, and any
// input it accepts must survive a write → parse → write round trip
// byte for byte.
func FuzzParseBench(f *testing.F) {
	f.Add(S27)
	f.Add("\nINPUT(a)\nOUTPUT(y)\ny = AND(w, a)\nw = NOT(a)\n")
	f.Add("\nINPUT(a)\nOUTPUT(y)\none = CONST1()\ny = AND(a, one)\n")
	f.Add("# header\ninput(a)\noutput(y)\ny = not(a) # trailing comment\n")
	for seed := int64(1); seed <= 3; seed++ {
		c := gen.Generate(gen.Profile{Name: "rt", PIs: 5, POs: 4, FFs: 8, Gates: 80 + 20*int(seed)}, seed)
		var buf bytes.Buffer
		if err := Write(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseString(src, "fuzz")
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Write(&first, c); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := ParseString(first.String(), "fuzz")
		if err != nil {
			t.Fatalf("written netlist does not parse: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := Write(&second, back); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the text:\n--- first\n%s--- second\n%s", first.String(), second.String())
		}
	})
}
