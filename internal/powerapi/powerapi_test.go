package powerapi

import (
	"errors"
	"math"
	"strings"
	"testing"

	"davide/internal/cluster"
	"davide/internal/node"
	"davide/internal/rack"
)

func nodeHierarchy(t *testing.T) (*Hierarchy, *node.Node) {
	t.Helper()
	n, err := node.New(7, node.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewNodeHierarchy(n)
	if err != nil {
		t.Fatal(err)
	}
	return h, n
}

func TestTypeAndAttrStrings(t *testing.T) {
	for _, tt := range []ObjectType{Platform, Cabinet, NodeObj, Socket, Accelerator} {
		if s := tt.String(); s == "" || strings.Contains(s, "ObjectType") {
			t.Errorf("type %d name %q", tt, s)
		}
	}
	for _, a := range []Attr{AttrPower, AttrPowerCap, AttrFreq, AttrTemp, AttrPeakFlops} {
		if s := a.String(); s == "" || strings.Contains(s, "Attr(") {
			t.Errorf("attr %d name %q", a, s)
		}
	}
	if !strings.Contains(ObjectType(99).String(), "99") || !strings.Contains(Attr(99).String(), "99") {
		t.Error("unknown enums should include number")
	}
}

func TestNodeHierarchyShape(t *testing.T) {
	h, _ := nodeHierarchy(t)
	names := h.Names()
	// 1 node + 2 sockets + 4 GPUs = 7 objects.
	if len(names) != 7 {
		t.Fatalf("objects = %v", names)
	}
	no, err := h.Lookup("node07")
	if err != nil {
		t.Fatal(err)
	}
	if len(no.Children) != 6 {
		t.Errorf("children = %v", no.Children)
	}
	if _, err := h.Lookup("nope"); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("err = %v", err)
	}
	if _, err := NewNodeHierarchy(nil); err == nil {
		t.Error("nil node should error")
	}
}

func TestClusterHierarchy(t *testing.T) {
	c, err := cluster.New(cluster.PilotConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy(c, 15)
	if err != nil {
		t.Fatal(err)
	}
	// 1 platform + 3 cabinets + 45 nodes + 90 sockets + 180 GPUs.
	if got := len(h.Names()); got != 1+3+45+90+180 {
		t.Fatalf("objects = %d", got)
	}
	plat, err := h.Lookup("davide")
	if err != nil {
		t.Fatal(err)
	}
	if len(plat.Children) != 3 {
		t.Errorf("cabinets = %v", plat.Children)
	}
	if fl, err := h.Get("davide", AttrPeakFlops); err != nil || fl < 0.9e15 {
		t.Errorf("platform peak = %v,%v, want ~1 PFlops", fl, err)
	}
	if _, err := NewHierarchy(nil, 15); err == nil {
		t.Error("nil cluster should error")
	}
	if _, err := NewHierarchy(c, 0); err == nil {
		t.Error("zero nodes per rack should error")
	}
}

func TestGetNodeAttributes(t *testing.T) {
	h, n := nodeHierarchy(t)
	n.SetLoad(1)
	p, err := h.Get("node07", AttrPower)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-float64(n.Power())) > 1e-9 {
		t.Errorf("power = %v, node says %v", p, n.Power())
	}
	f, err := h.Get("node07", AttrFreq)
	if err != nil || f != 3.5e9 {
		t.Errorf("freq = %v,%v", f, err)
	}
	fl, err := h.Get("node07", AttrPeakFlops)
	if err != nil || fl <= 0 {
		t.Errorf("flops = %v,%v", fl, err)
	}
	temp, err := h.Get("node07", AttrTemp)
	if err != nil || temp < 20 {
		t.Errorf("temp = %v,%v", temp, err)
	}
	// Socket and GPU power sum to node power minus misc/memory.
	var sum float64
	for _, child := range []string{"node07.socket0", "node07.socket1",
		"node07.gpu0", "node07.gpu1", "node07.gpu2", "node07.gpu3"} {
		v, err := h.Get(child, AttrPower)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	misc := float64(node.DefaultConfig().MiscPower + node.DefaultConfig().MemPowerMax)
	if math.Abs(sum+misc-p) > 1e-6 {
		t.Errorf("components %v + misc %v != node %v", sum, misc, p)
	}
}

func TestGetUnsupportedAttr(t *testing.T) {
	h, _ := nodeHierarchy(t)
	if _, err := h.Get("node07.gpu0", AttrFreq); !errors.Is(err, ErrNoSuchAttr) {
		t.Errorf("err = %v", err)
	}
	if _, err := h.Get("node07.socket0", AttrPowerCap); !errors.Is(err, ErrNoSuchAttr) {
		t.Errorf("err = %v", err)
	}
}

func TestSetGPUPowerCap(t *testing.T) {
	h, n := nodeHierarchy(t)
	n.SetLoad(1)
	if err := h.Set("node07.gpu0", AttrPowerCap, 200); err != nil {
		t.Fatal(err)
	}
	got, err := h.Get("node07.gpu0", AttrPowerCap)
	if err != nil || got != 200 {
		t.Errorf("cap = %v,%v", got, err)
	}
	p, err := h.Get("node07.gpu0", AttrPower)
	if err != nil || p > 200 {
		t.Errorf("capped GPU power = %v,%v", p, err)
	}
	if err := h.Set("node07.gpu0", AttrPowerCap, -5); err == nil {
		t.Error("negative cap should error")
	}
}

func TestSetFrequencyRoundsDown(t *testing.T) {
	h, n := nodeHierarchy(t)
	// Request 3.0 GHz: the ladder (2.0..3.5 in 7 steps of 0.25) has
	// exactly 3.0; request 3.1 GHz: rounds down to 3.0.
	if err := h.Set("node07.socket0", AttrFreq, 3.1e9); err != nil {
		t.Fatal(err)
	}
	f, err := h.Get("node07.socket0", AttrFreq)
	if err != nil || math.Abs(f-3.0e9) > 1 {
		t.Errorf("freq = %v,%v want 3.0 GHz", f, err)
	}
	// Node-level set drives both sockets.
	if err := h.Set("node07", AttrFreq, 2.5e9); err != nil {
		t.Fatal(err)
	}
	for i, s := range n.Sockets {
		if math.Abs(float64(s.EffectiveFrequency())-2.5e9) > 1 {
			t.Errorf("socket %d freq = %v", i, s.EffectiveFrequency())
		}
	}
	// Too low a request fails.
	if err := h.Set("node07.socket0", AttrFreq, 1e9); err == nil {
		t.Error("frequency below FMin should error")
	}
}

func TestSetReadOnly(t *testing.T) {
	h, _ := nodeHierarchy(t)
	if err := h.Set("node07", AttrPower, 100); !errors.Is(err, ErrReadOnly) {
		t.Errorf("err = %v", err)
	}
	if err := h.Set("node07", AttrTemp, 50); !errors.Is(err, ErrReadOnly) {
		t.Errorf("err = %v", err)
	}
	if err := h.Set("node07.socket0", AttrPowerCap, 100); !errors.Is(err, ErrNoSuchAttr) {
		t.Errorf("err = %v", err)
	}
	if err := h.Set("missing", AttrPowerCap, 100); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("err = %v", err)
	}
}

func TestWalkAndReport(t *testing.T) {
	c, err := cluster.New(cluster.PilotConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy(c, 15)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := h.Walk("davide.cab0", func(o *Object) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	// 1 cabinet + 15 nodes + 30 sockets + 60 GPUs.
	if count != 106 {
		t.Errorf("walked %d objects", count)
	}
	if err := h.Walk("missing", func(*Object) error { return nil }); err == nil {
		t.Error("walk of missing root should error")
	}
	rep, err := h.Report("davide.cab0.node00")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"node", "socket", "accelerator", "W"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestReportPropagatesGetErrors(t *testing.T) {
	c, err := cluster.New(cluster.PilotConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy(c, 15)
	if err != nil {
		t.Fatal(err)
	}
	// Poison one rack's conversion scheme: ACInput, and therefore the
	// platform's FacilityPower, now fails. That is a genuine measurement
	// failure, not a missing attribute — Report must surface it instead
	// of printing a silently shorter report.
	c.Racks[0].Scheme = rack.PowerScheme(99)
	_, err = h.Report("davide")
	if err == nil {
		t.Fatal("Report over a failing FacilityPower should error")
	}
	if errors.Is(err, ErrNoSuchAttr) {
		t.Fatalf("err = %v, want a non-ErrNoSuchAttr failure", err)
	}
	// The missing-attribute skip path still works: a subtree below the
	// poisoned platform reports fine.
	rep, err := h.Report("davide.cab1.node15")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "node") {
		t.Errorf("subtree report missing node row:\n%s", rep)
	}
}

func TestZeroSocketNodeFreq(t *testing.T) {
	// A node without sockets (an accelerator sled): AttrFreq must come
	// back as ErrNoSuchAttr on both Get and Set, not index out of range.
	h, err := NewNodeHierarchy(&node.Node{ID: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get("node03", AttrFreq); !errors.Is(err, ErrNoSuchAttr) {
		t.Errorf("Get freq err = %v, want ErrNoSuchAttr", err)
	}
	if err := h.Set("node03", AttrFreq, 3e9); !errors.Is(err, ErrNoSuchAttr) {
		t.Errorf("Set freq err = %v, want ErrNoSuchAttr", err)
	}
}

func TestCabinetPowerAggregates(t *testing.T) {
	c, err := cluster.New(cluster.PilotConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.SetLoad(0.5)
	h, err := NewHierarchy(c, 15)
	if err != nil {
		t.Fatal(err)
	}
	cab, err := h.Get("davide.cab0", AttrPower)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < 15; i++ {
		sum += float64(c.Nodes[i].Power())
	}
	if math.Abs(cab-sum) > 1e-6 {
		t.Errorf("cabinet power %v != node sum %v", cab, sum)
	}
	plat, err := h.Get("davide", AttrPower)
	if err != nil {
		t.Fatal(err)
	}
	if plat <= 3*cab {
		t.Errorf("platform power %v should exceed IT sum (conversion+cooling)", plat)
	}
}
