package trace

import (
	"bytes"
	"strings"
	"testing"

	"davide/internal/sensor"
)

func TestSamplesRoundTrip(t *testing.T) {
	in := []sensor.Sample{{T: 0, P: 100.5}, {T: 2e-5, P: 101}, {T: 4e-5, P: 99.25}}
	var buf bytes.Buffer
	if err := WriteSamples(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSamples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("sample %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestWriteSamplesEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSamples(&buf, nil); err == nil {
		t.Error("empty samples should error")
	}
}

func TestReadSamplesErrors(t *testing.T) {
	cases := []string{
		"",
		"t_s,power_w\n",
		"bad,header\n1,2\n",
		"t_s,power_w\nnot-a-number,5\n",
		"t_s,power_w\n1,not-a-number\n",
	}
	for i, c := range cases {
		if _, err := ReadSamples(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

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

func TestTableJSONRoundTrip(t *testing.T) {
	tab, err := NewTable("t", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AddRow("1", "2"); err != nil {
		t.Fatal(err)
	}
	data, err := tab.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadTable(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != "t" || len(got.Rows) != 1 || got.Rows[0][1] != "2" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := LoadTable([]byte("{")); err == nil {
		t.Error("bad JSON should error")
	}
	if _, err := LoadTable([]byte(`{"title":"","header":["a"]}`)); err == nil {
		t.Error("empty title should error")
	}
	if _, err := LoadTable([]byte(`{"title":"t","header":["a"],"rows":[["1","2"]]}`)); err == nil {
		t.Error("ragged rows should error")
	}
}
