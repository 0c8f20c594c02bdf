//go:build soak

package fleet_test

// The 10k-node proof of the tiered fabric (DESIGN.md §8). Behind the
// `soak` tag because it takes minutes, not seconds, on a laptop (its
// brokers are in process, so it needs no raised file-descriptor limit):
//
//	go test -tags soak -run TestPlane10kNodes ./internal/fleet
//
// CI only vets the tagged file so it keeps compiling.

import (
	"context"
	"testing"

	"davide/internal/fleet"
)

func TestPlane10kNodes(t *testing.T) {
	const nodes, racks = 10240, 16
	p := newPlane(t, fleet.PlaneSpec{
		Racks:     racks,
		NodesHint: nodes,
		Gateway:   fleet.GatewaySpec{SampleRate: 50, BatchSamples: 64, ClientPrefix: "soakgw"},
	})
	st, err := p.Stream(context.Background(), planeStreams(nodes), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bridge.Dropped != 0 {
		t.Fatalf("bridge backpressure dropped %d with sized queues", st.Bridge.Dropped)
	}
	undelivered := 0
	for _, ns := range st.PerNode {
		if !ns.Delivered {
			undelivered++
		}
	}
	if undelivered > 0 {
		t.Fatalf("%d of %d nodes not delivered", undelivered, nodes)
	}
}
