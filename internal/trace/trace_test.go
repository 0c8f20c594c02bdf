package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableBasics(t *testing.T) {
	if _, err := NewTable("", "a"); err == nil {
		t.Error("empty title should error")
	}
	if _, err := NewTable("t"); err == nil {
		t.Error("no columns should error")
	}
	tab, err := NewTable("E4 monitoring", "monitor", "rate", "error%")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AddRow("IPMI", "1", "25.0"); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddRow("EG", "50000"); err == nil {
		t.Error("short row should error")
	}
	if err := tab.AddRow("EG", "50000", "0.05"); err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
}

func TestTableCSV(t *testing.T) {
	tab, err := NewTable("x", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AddRow("1", "2"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestTableMarkdown(t *testing.T) {
	tab, err := NewTable("Efficiency", "system", "GF/W")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AddRow("D.A.V.I.D.E.", "10.0"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"### Efficiency", "| system | GF/W |", "| --- | --- |", "| D.A.V.I.D.E. | 10.0 |"} {
		if !strings.Contains(s, want) {
			t.Errorf("markdown missing %q:\n%s", want, s)
		}
	}
}
