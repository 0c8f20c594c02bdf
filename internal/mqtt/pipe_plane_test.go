package mqtt_test

import (
	"context"
	"errors"
	"syscall"
	"testing"

	"davide/internal/fleet"
	"davide/internal/mqtt"
	"davide/internal/sensor"
)

// TestPlanesLeaveNoPipeListener: a Plane builds every broker in process,
// spine and bridges included, and closing it unregisters each one, so a
// benchmark that builds a Plane per round leaks nothing and a late dial
// to a closed Plane's broker is refused.
func TestPlanesLeaveNoPipeListener(t *testing.T) {
	before := mqtt.OpenPipeListeners()
	var addrs []string
	for _, racks := range []int{1, 2} {
		p, err := fleet.NewPlane(fleet.PlaneSpec{
			Racks:     racks,
			NodesHint: 4,
			Gateway:   fleet.GatewaySpec{SampleRate: 50, BatchSamples: 16, ClientPrefix: "pipegw"},
		})
		if err != nil {
			t.Fatal(err)
		}
		brokers := racks
		if racks > 1 {
			brokers++ // the spine
		}
		if n := mqtt.OpenPipeListeners() - before; n != brokers {
			_ = p.Close()
			t.Fatalf("a %d-rack plane registered %d in-process listeners, want %d", racks, n, brokers)
		}
		streams := make([]fleet.NodeStream, 4)
		for i := range streams {
			streams[i] = fleet.NodeStream{Node: i, Signal: sensor.Const(300)}
		}
		st, err := p.Stream(context.Background(), streams, 0, 1)
		if err == nil && racks > 1 && st.Bridge.Forwarded == 0 {
			err = errors.New("no batch crossed a bridge")
		}
		addrs = append(addrs, p.SpineAddr())
		if cerr := p.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%d racks: %v", racks, err)
		}
	}
	if n := mqtt.OpenPipeListeners(); n != before {
		t.Fatalf("%d in-process listeners registered after every plane closed, want %d", n, before)
	}
	for _, addr := range addrs {
		if _, err := mqtt.Dial(addr, mqtt.ClientOptions{ClientID: "late"}); !errors.Is(err, syscall.ECONNREFUSED) {
			t.Fatalf("dial %s after its plane closed: %v, want connection refused", addr, err)
		}
	}
}
