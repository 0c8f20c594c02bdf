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
	f.Fuzz(func(t *testing.T, prev string) {
		want := ExtractFindings(prev)
		if got := ExtractFindings(RenderLedger(rep, prev)); got != want {
			t.Fatalf("findings changed across a regeneration:\n got %q\nwant %q", got, want)
		}
	})
}
