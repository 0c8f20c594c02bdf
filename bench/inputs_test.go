package main

import (
	"reflect"
	"testing"
)

// Every generator is a pure function of its seed: the same seed gives the
// same inputs, another seed gives others.

func TestFabricStreamsPureInSeed(t *testing.T) {
	a, b, c := fabricStreams(7, 64), fabricStreams(7, 64), fabricStreams(11, 64)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced the same streams")
	}
	for i, ns := range a {
		if ns.Node != i || ns.Signal == nil {
			t.Fatalf("stream %d: node %d signal %v", i, ns.Node, ns.Signal)
		}
	}
}

func TestControlJobsPureInSeed(t *testing.T) {
	trainA, workA, err := controlJobs(7, 40)
	if err != nil {
		t.Fatal(err)
	}
	trainB, workB, _ := controlJobs(7, 40)
	_, workC, _ := controlJobs(11, 40)
	if !reflect.DeepEqual(trainA, trainB) || !reflect.DeepEqual(workA, workB) {
		t.Error("same seed produced different jobs")
	}
	if reflect.DeepEqual(workA, workC) {
		t.Error("different seeds produced the same jobs")
	}
	if len(trainA) != 600 || len(workA) != 40 || workA[0].SubmitAt != 0 {
		t.Errorf("got %d training and %d work jobs, first submitted at %g", len(trainA), len(workA), workA[0].SubmitAt)
	}
}

func TestQueryMixPureInSeedAndShaped(t *testing.T) {
	plan := queryPlan{nodes: 45, rackSize: 15, horizonS: 2800, jobIDs: []int{600, 601, 602}}
	const n = 20000
	a, hotA := queryMix(7, n, plan)
	b, hotB := queryMix(7, n, plan)
	c, _ := queryMix(11, n, plan)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(hotA, hotB) {
		t.Error("same seed produced a different mix")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced the same mix")
	}

	var count [numClasses]int
	hot := make(map[string]bool)
	cold := make(map[string]bool)
	for _, q := range a {
		count[q.class]++
		switch q.class {
		case classHot:
			hot[q.path] = true
		case classCold:
			if cold[q.path] {
				t.Fatalf("cold window %s repeats", q.path)
			}
			cold[q.path] = true
			if q.t1 > plan.horizonS+1 || q.t0 < 0 {
				t.Fatalf("cold window [%g, %g] leaves the sealed history", q.t0, q.t1)
			}
		case classLive:
			if q.path != "" {
				t.Fatalf("live request carries a fixed path %s", q.path)
			}
		}
	}
	if len(hot) > hotKeys || len(hotA) != hotKeys {
		t.Errorf("%d distinct hot paths over %d keys", len(hot), len(hotA))
	}
	for class, want := range [numClasses]float64{0.6, 0.2, 0.1, 0.1} {
		got := float64(count[class]) / n
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("class %s is %.3f of the mix, want %.1f", classNames[class], got, want)
		}
	}
}
