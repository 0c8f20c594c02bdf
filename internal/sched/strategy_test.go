package sched

import (
	"reflect"
	"strings"
	"testing"
)

// mustLookup resolves a registered strategy name or fails the test.
func mustLookup(tb testing.TB, name string) Strategy {
	tb.Helper()
	s, err := Lookup(name)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestStrategyRegistry holds the one policy vocabulary: every listed
// name resolves to a strategy whose Name is that name, no name is
// listed twice, each falls in its documented class, and every lookup
// builds a fresh instance.
func TestStrategyRegistry(t *testing.T) {
	powerAware := map[string]bool{
		"fifo": false, "fifo-power": true,
		"sjf": false, "sjf-power": true,
		"easy": false, "easy-power": true,
		"power": true, "weighted": true, "edf-power": true,
	}
	names := StrategyNames()
	if len(names) != len(powerAware) {
		t.Errorf("registry lists %d names %v, the documented classes %d", len(names), names, len(powerAware))
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("%q listed twice", name)
		}
		seen[name] = true
		s := mustLookup(t, name)
		if s.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, s.Name())
		}
		if aware, ok := powerAware[name]; !ok || s.PowerAware() != aware {
			t.Errorf("%q: PowerAware() = %v, documented %v (listed %v)", name, s.PowerAware(), aware, ok)
		}
		// Strategies may carry per-run state: two lookups must not share
		// it. A value type, or a pointer to nothing, cannot.
		if v := reflect.ValueOf(s); v.Kind() == reflect.Pointer && v.Elem().Type().Size() > 0 && mustLookup(t, name) == s {
			t.Errorf("%q: two lookups returned one instance", name)
		}
	}
	if _, err := Lookup("live-power-aware"); err == nil || !strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Errorf("unknown name: want an error listing %v, got %v", names, err)
	}
}
