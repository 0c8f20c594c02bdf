package tournament

import (
	"os"
	"testing"
)

// FuzzExtractFindings fuzzes the one parser of a hand-edited file: the
// findings-marker splitter never panics, and regenerating the ledger over
// any previous text carries that text's findings forward unchanged.
func FuzzExtractFindings(f *testing.F) {
	data, err := os.ReadFile("../../tournament.json")
	if err != nil {
		f.Fatal(err)
	}
	rep, err := DecodeJSON(data)
	if err != nil {
		f.Fatal(err)
	}
	ledger, err := os.ReadFile("../../STRATEGY_LEDGER.md")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(ledger))
	f.Add("")
	f.Add(FindingsBegin + FindingsEnd)
	f.Add(FindingsEnd + " lost " + FindingsBegin)
	f.Add(FindingsBegin + " a " + FindingsBegin + " b\n" + FindingsEnd + " c " + FindingsEnd)
	f.Add("x" + FindingsBegin + "\n\t kept \xff\n" + FindingsEnd)
	f.Add("quoting " + FindingsEnd + " up here\n" + FindingsBegin + "\nkept\n" + FindingsEnd)
	f.Fuzz(func(t *testing.T, prev string) {
		want := ExtractFindings(prev)
		if got := ExtractFindings(RenderLedger(rep, prev)); got != want {
			t.Fatalf("findings changed across a regeneration:\n got %q\nwant %q", got, want)
		}
	})
}

func TestExtractFindings(t *testing.T) {
	for name, c := range map[string]struct{ prev, want string }{
		"empty":                 {"", defaultFindings},
		"no markers":            {"# Strategy Ledger\n", defaultFindings},
		"begin without end":     {FindingsBegin + " lost", defaultFindings},
		"end without begin":     {"lost " + FindingsEnd, defaultFindings},
		"only end before begin": {FindingsEnd + " lost " + FindingsBegin, defaultFindings},
		"pair":                  {"x" + FindingsBegin + "\n\t kept \n" + FindingsEnd + "y", "kept"},
		"empty pair":            {FindingsBegin + FindingsEnd, ""},
		"end quoted before the pair": {
			"quoting " + FindingsEnd + " up here\n" + FindingsBegin + "\nkept\n" + FindingsEnd, "kept"},
		"second pair ignored": {
			FindingsBegin + " a " + FindingsEnd + FindingsBegin + " b " + FindingsEnd, "a"},
	} {
		if got := ExtractFindings(c.prev); got != c.want {
			t.Errorf("%s: ExtractFindings = %q, want %q", name, got, c.want)
		}
	}
}
