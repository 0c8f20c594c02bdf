// Powermon: the monitoring story of the paper in one run. It compares the
// energy-estimation error of the five monitoring classes (IPMI, ArduPower,
// PowerInsight, HDEEM, the D.A.V.I.D.E. energy gateway) on a bursty
// application power signal, then streams the same signal through a *real*
// MQTT broker on loopback TCP and shows the aggregator recovering the
// energy to within a fraction of a percent.
package main

import (
	"fmt"
	"log"
	"time"

	"davide/internal/gateway"
	"davide/internal/monitors"
	"davide/internal/mqtt"
	"davide/internal/ptp"
	"davide/internal/sensor"
	"davide/internal/telemetry"
)

func main() {
	log.SetFlags(0)

	// A BQCD-like signal: 400 W baseline with 1.6 kW bursts at 50 Hz,
	// 20 % duty — far above what IPMI-class monitoring can resolve.
	sig := sensor.Sum{
		sensor.Const(400),
		sensor.Square{Low: 0, High: 1600, Period: 0.02, Duty: 0.2, Phase: 0.0013},
	}
	truth, err := sig.Energy(0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ground-truth energy over 1 s: %.2f J\n\n", truth)

	fmt.Println("monitor class comparison (paper §V-C):")
	results, err := monitors.CompareAll(sig, 0, 1, 3000, 42)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("  %-16s %7d samples  error %7.3f %%\n", r.Class, r.Samples, r.RelErrorPct)
	}

	// Live path: gateway -> broker -> aggregator over loopback TCP.
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = broker.Close() }()
	agg := telemetry.NewAggregator()
	ingest, sub, err := agg.AttachParallel(broker.Addr(), "powermon-agent", 0)
	if err != nil {
		log.Fatal(err)
	}
	defer ingest.Close()
	defer func() { _ = sub.Close() }()

	client, err := mqtt.Dial(broker.Addr(), mqtt.ClientOptions{ClientID: "gw00"})
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	mon, err := monitors.NewBuiltin(monitors.EnergyGateway, 3000, 1)
	if err != nil {
		log.Fatal(err)
	}
	clock, err := ptp.NewClock(0, 0, 0, 2)
	if err != nil {
		log.Fatal(err)
	}
	gw, err := gateway.New(0, mon, clock, gateway.ClientPublisher{C: client}, 1000)
	if err != nil {
		log.Fatal(err)
	}
	est, err := gw.PublishWindow(sig, 0, 1)
	if err != nil {
		log.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && agg.Samples(0) < 50000 {
		time.Sleep(2 * time.Millisecond)
	}
	delivered, err := agg.NodeEnergy(0, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlive MQTT path: gateway estimate %.2f J, aggregator %.2f J (%.4f %% off truth)\n",
		est, delivered, 100*abs(delivered-truth)/truth)
	fmt.Printf("broker stats: %d publishes in, %d delivered, %d B in\n",
		broker.Stats.PublishesIn.Load(), broker.Stats.PublishesOut.Load(), broker.Stats.BytesIn.Load())
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
