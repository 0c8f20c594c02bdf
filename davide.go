// Package davide is the public API of the D.A.V.I.D.E. reproduction: an
// energy-aware petaflops-class HPC cluster simulator and telemetry stack
// after Abu Ahmad et al., "Design of an Energy Aware peta-flops Class High
// Performance Cluster Based on Power Architecture" (IPDPS-W 2017).
//
// The facade re-exports the pieces a downstream user composes:
//
//   - System (core): the full Fig.-4 stack — pilot cluster, MQTT
//     telemetry, energy accounting, power prediction, power-aware
//     scheduling;
//   - the workload generator and the scheduling policies;
//   - the monitoring chain (signals, monitors, gateways, aggregators) for
//     standalone telemetry studies;
//   - the application kernels and the developer energy API.
//
// See the examples/ directory for runnable entry points and DESIGN.md for
// the module map.
package davide

import (
	"davide/internal/accounting"
	"davide/internal/capping"
	"davide/internal/chaos"
	"davide/internal/cluster"
	"davide/internal/core"
	"davide/internal/energyapi"
	"davide/internal/energyserve"
	"davide/internal/fleet"
	"davide/internal/gateway"
	"davide/internal/monitors"
	"davide/internal/mqtt"
	"davide/internal/node"
	"davide/internal/obs"
	"davide/internal/powerapi"
	"davide/internal/predictor"
	"davide/internal/ptp"
	"davide/internal/scenario"
	"davide/internal/sched"
	"davide/internal/sensor"
	"davide/internal/telemetry"
	"davide/internal/tournament"
	"davide/internal/tsdb"
	"davide/internal/workload"
)

// System is the assembled power-aware stack (see internal/core).
type System = core.System

// StreamResult summarises a real-MQTT telemetry replay.
type StreamResult = core.StreamResult

// NewSystem builds the 45-node pilot system; trainJobs (may be nil) train
// the job power predictor.
func NewSystem(trainJobs []Job) (*System, error) { return core.NewSystem(trainJobs) }

// Workload types.
type (
	// Job is one batch job.
	Job = workload.Job
	// AppKind identifies one of the paper's application classes.
	AppKind = workload.AppKind
	// GeneratorConfig tunes the synthetic workload.
	GeneratorConfig = workload.GeneratorConfig
	// Generator produces deterministic job traces.
	Generator = workload.Generator
)

// Application classes (§IV of the paper).
const (
	QuantumESPRESSO = workload.QuantumESPRESSO
	NEMO            = workload.NEMO
	SPECFEM3D       = workload.SPECFEM3D
	BQCD            = workload.BQCD
	Generic         = workload.Generic
)

// NewGenerator creates a workload generator.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) { return workload.NewGenerator(cfg) }

// DefaultWorkload returns the pilot-like generator configuration.
func DefaultWorkload(seed int64) GeneratorConfig { return workload.DefaultGeneratorConfig(seed) }

// Scheduling types.
type (
	// SchedConfig configures one scheduling run.
	SchedConfig = sched.Config
	// SchedResult carries scheduling metrics.
	SchedResult = sched.Result
)

// Live control plane: the closed-loop scheduler that reads the machine's
// measured power back out of the telemetry store every tick (see
// internal/sched.Controller and core.RunLive).
type (
	// ControllerConfig configures the tick-driven live scheduler.
	ControllerConfig = sched.ControllerConfig
	// ControllerResult extends SchedResult with the live telemetry counters.
	ControllerResult = sched.ControllerResult
	// Controller is the closed-loop scheduler itself (core.RunLive wires
	// it to a real fleet; use directly for custom plants).
	Controller = sched.Controller
	// Admission selects live-FIFO or power-aware dispatch.
	Admission = sched.Admission
	// TelemetrySource is the store slice the controller reads.
	TelemetrySource = sched.TelemetrySource
	// ControllerHooks connect a controller to its telemetry plant.
	ControllerHooks = sched.Hooks
	// LiveConfig configures a closed-loop run on a System.
	LiveConfig = core.LiveConfig
	// LiveResult is a closed-loop run's outcome.
	LiveResult = core.LiveResult
	// RackStats reports one per-rack capping loop.
	RackStats = core.RackStats
	// PowerFeed supplies a capping loop's telemetry observation.
	PowerFeed = capping.PowerFeed
)

// Live admission disciplines.
const (
	AdmitFIFO       = sched.AdmitFIFO
	AdmitPowerAware = sched.AdmitPowerAware
)

// NewController builds a closed-loop scheduler over a custom telemetry
// plant; most callers want System.RunLive instead.
func NewController(cfg ControllerConfig, jobs []Job, src TelemetrySource, hooks ControllerHooks) (*Controller, error) {
	return sched.NewController(cfg, jobs, src, hooks)
}

// Pluggable admission strategies: the dispatch seam of the scheduler
// core, shared by System.RunScheduled (batch) and the live controller.
// A ControllerConfig may carry a Strategy instead of an Admission; the
// built-ins below are bit-identical to the corresponding Admission.
type (
	// Strategy is a pluggable dispatch discipline consulted once per
	// dispatch pass (batch event or control tick).
	Strategy = sched.Strategy
	// DispatchEnv is the sandboxed machine view a Strategy decides over.
	DispatchEnv = sched.DispatchEnv
	// WeightedConfig tunes the weighted-scoring admission strategy.
	WeightedConfig = sched.WeightedConfig
)

// Admission strategies (the tournament's policy space, plus the
// power-aware FIFO and EASY variants the batch experiments use).
func NewFIFOStrategy() Strategy       { return sched.NewFIFOStrategy() }
func NewFIFOPowerStrategy() Strategy  { return sched.NewFIFOPowerStrategy() }
func NewPowerAwareStrategy() Strategy { return sched.NewPowerAwareStrategy() }
func NewSJFStrategy() Strategy        { return sched.NewSJFStrategy() }
func NewSJFPowerStrategy() Strategy   { return sched.NewSJFPowerStrategy() }
func NewEASYStrategy() Strategy       { return sched.NewEASYStrategy() }
func NewEASYPowerStrategy() Strategy  { return sched.NewEASYPowerStrategy() }

// NewWeightedStrategy builds the weighted-scoring power-aware strategy.
func NewWeightedStrategy(cfg WeightedConfig) Strategy { return sched.NewWeightedStrategy(cfg) }

// NewEDFStrategy builds the deadline-aware strategy (slack <= 0 takes
// sched.DefaultEDFSlack).
func NewEDFStrategy(slack float64) Strategy { return sched.NewEDFStrategy(slack) }

// Strategy tournament: every registered policy swept across clean,
// chaos and scenario axes at fixed seeds, scored and ranked into
// tournament.json and STRATEGY_LEDGER.md (see internal/tournament).
type (
	// TournamentConfig parameterises a tournament (zero value = the
	// committed reference tournament).
	TournamentConfig = tournament.Config
	// TournamentPolicy is one registered entrant.
	TournamentPolicy = tournament.Policy
	// TournamentReport is the machine-readable outcome.
	TournamentReport = tournament.Report
	// TournamentCell is one (policy, axis) scorecard.
	TournamentCell = tournament.Cell
	// TournamentStanding is one leaderboard row.
	TournamentStanding = tournament.Standing
)

// RunTournament executes the tournament deterministically; progress
// (may be nil) receives one callback per completed cell.
func RunTournament(cfg TournamentConfig, progress tournament.Progress) (*TournamentReport, error) {
	return tournament.Run(cfg, progress)
}

// TournamentPolicies returns the registered policies in leaderboard
// order.
func TournamentPolicies() []TournamentPolicy { return tournament.Policies() }

// TournamentPolicyNames lists the registered policy names in
// leaderboard order.
func TournamentPolicyNames() []string { return tournament.PolicyNames() }

// TournamentAxisNames returns every tournament axis in canonical order.
func TournamentAxisNames() []string { return tournament.AxisNames() }

// RenderStrategyLedger renders STRATEGY_LEDGER.md from a report,
// carrying over the curated findings section of prev.
func RenderStrategyLedger(r *TournamentReport, prev string) string {
	return tournament.RenderLedger(r, prev)
}

// DecodeTournament parses a tournament.json written by EncodeJSON.
func DecodeTournament(data []byte) (*TournamentReport, error) { return tournament.DecodeJSON(data) }

// NewStoreFeed builds a capping PowerFeed over a node group from a
// telemetry store, stale (held) whenever a node stops delivering.
func NewStoreFeed(src capping.SampleStore, nodes []int, window float64) (PowerFeed, error) {
	return capping.NewStoreFeed(src, nodes, window)
}

// Predictors.
type (
	// Predictor estimates per-node job power before execution.
	Predictor = predictor.Predictor
	// PredictorEvaluation scores a predictor on held-out jobs.
	PredictorEvaluation = predictor.Evaluation
	// OnlinePredictor retrains a predictor from measured completions.
	OnlinePredictor = predictor.Online
)

// NewOnlinePredictor wraps a predictor for online retraining: refit on
// base plus observed completions every `every` observations.
func NewOnlinePredictor(p Predictor, base []Job, every, window int) (*OnlinePredictor, error) {
	return predictor.NewOnline(p, base, every, window)
}

// NewMeanPredictor returns the per-(user, app) mean baseline.
func NewMeanPredictor() Predictor { return predictor.NewMeanPerKey() }

// NewOLSPredictor returns the linear-regression predictor.
func NewOLSPredictor() Predictor { return predictor.NewOLS() }

// NewKNNPredictor returns the k-nearest-neighbour predictor.
func NewKNNPredictor(k int) (Predictor, error) { return predictor.NewKNN(k) }

// EvaluatePredictor trains and scores a predictor.
func EvaluatePredictor(p Predictor, train, test []Job) (PredictorEvaluation, error) {
	return predictor.Evaluate(p, train, test)
}

// Monitoring chain.
type (
	// Signal is an analytic power trace.
	Signal = sensor.Signal
	// Sample is one timestamped power reading.
	Sample = sensor.Sample
	// MonitorClass identifies IPMI/HDEEM/ArduPower/EG-class monitors.
	MonitorClass = monitors.Class
	// MonitorResult is one monitoring accuracy measurement.
	MonitorResult = monitors.Result
	// Gateway is a node's energy gateway.
	Gateway = gateway.Gateway
	// Aggregator is a telemetry subscriber agent.
	Aggregator = telemetry.Aggregator
	// Broker is the MQTT broker.
	Broker = mqtt.Broker
	// PTPClock is a drifting, PTP-disciplinable clock.
	PTPClock = ptp.Clock
)

// Monitoring classes compared in the paper's related work.
const (
	MonitorIPMI      = monitors.IPMI
	MonitorArduPower = monitors.ArduPower
	MonitorHDEEM     = monitors.HDEEM
	MonitorEG        = monitors.EnergyGateway
)

// CompareMonitors measures all monitor classes against one signal.
func CompareMonitors(sig Signal, t0, t1, fullScale float64, seed int64) ([]MonitorResult, error) {
	return monitors.CompareAll(sig, t0, t1, fullScale, seed)
}

// NewBroker starts an MQTT broker on addr (e.g. "127.0.0.1:0").
func NewBroker(addr string) (*Broker, error) { return mqtt.NewBroker(addr) }

// Telemetry fleet: the concurrent gateway→MQTT→aggregator replay
// subsystem (see internal/fleet).
type (
	// Fleet assembles per-node gateways and streams signal windows
	// through a shared broker over a bounded worker pool.
	Fleet = fleet.Fleet
	// GatewaySpec describes how every gateway in a fleet is built.
	GatewaySpec = fleet.GatewaySpec
	// NodeStream pairs a node ID with the signal its gateway samples.
	NodeStream = fleet.NodeStream
	// FleetNodeStats reports one node's share of a fleet stream.
	FleetNodeStats = fleet.NodeStats
	// FleetStreamStats aggregates one fleet stream across all nodes.
	FleetStreamStats = fleet.StreamStats
)

// NewFleet creates a gateway fleet publishing to the broker at brokerAddr;
// workers bounds streaming concurrency (0 = one worker per CPU).
func NewFleet(brokerAddr string, spec GatewaySpec, workers int) (*Fleet, error) {
	return fleet.New(brokerAddr, spec, workers)
}

// The telemetry plane: one rack broker, or per-rack brokers bridged into
// a spine (see internal/fleet's Plane and internal/mqtt's Bridge,
// DESIGN.md §8).
type (
	// Bridge is a broker-to-broker uplink session forwarding topic
	// filters from a source broker onto a target broker.
	Bridge = mqtt.Bridge
	// BridgeOptions configures NewBridge.
	BridgeOptions = mqtt.BridgeOptions
	// BridgeStats snapshots a bridge's traffic accounting.
	BridgeStats = mqtt.BridgeStats
	// Plane is a whole telemetry plant — rack broker cells, their
	// gateway fleets and ingest pools, one shared store — with bridge
	// uplinks into a spine broker when there is more than one rack.
	Plane = fleet.Plane
	// PlaneSpec describes a plane.
	PlaneSpec = fleet.PlaneSpec
	// PlaneStats reports one Plane.Stream call.
	PlaneStats = fleet.PlaneStats
)

// NewBridge dials both brokers and starts forwarding the configured
// topic filters from sourceAddr onto targetAddr.
func NewBridge(sourceAddr, targetAddr string, opts BridgeOptions) (*Bridge, error) {
	return mqtt.NewBridge(sourceAddr, targetAddr, opts)
}

// NewPlane builds a telemetry plane from spec.
func NewPlane(spec PlaneSpec) (*Plane, error) { return fleet.NewPlane(spec) }

// Chaos engineering: deterministic fault injection for the telemetry
// plane (see internal/chaos and the presets in internal/fleet).
type (
	// ChaosPlan assigns seeded fault specs across a fleet.
	ChaosPlan = chaos.Plan
	// ChaosSpec configures the faults injected on one gateway link.
	ChaosSpec = chaos.Spec
	// ChaosCounters is the exact, reproducible ledger of injected faults.
	ChaosCounters = chaos.Counters
)

// Chaos scenario presets for fleet replays. ChaosBridgeFlap targets the
// rack→spine uplinks of a tiered plane (keyed by rack index) rather than
// per-gateway links; apply it through System.BridgeFaults or
// PlaneSpec.BridgeFaults.
const (
	ChaosLossyRack       = fleet.ChaosLossyRack
	ChaosFlappingGateway = fleet.ChaosFlappingGateway
	ChaosSplitBrain      = fleet.ChaosSplitBrain
	ChaosCorruptWire     = fleet.ChaosCorruptWire
	ChaosBridgeFlap      = fleet.ChaosBridgeFlap
)

// ChaosPreset builds a named fault scenario; the same (name, seed)
// injects an identical fault schedule on every run.
func ChaosPreset(name string, seed int64) (*ChaosPlan, error) { return fleet.ChaosPreset(name, seed) }

// ChaosPresetNames lists the available gateway-side chaos presets;
// bridge (uplink) presets are listed by ChaosBridgePresetNames.
func ChaosPresetNames() []string { return fleet.ChaosPresetNames() }

// ChaosBridgePresetNames lists the available bridge (uplink) presets.
func ChaosBridgePresetNames() []string { return fleet.ChaosBridgePresetNames() }

// IsBridgePreset reports whether the named preset targets rack→spine
// uplinks instead of per-gateway links.
func IsBridgePreset(name string) bool { return fleet.IsBridgePreset(name) }

// ChaosErrBound returns a preset's documented MaxEnergyErrPct bound.
func ChaosErrBound(name string) (float64, error) { return fleet.ChaosErrBound(name) }

// Composed chaos and the scenario engine (see internal/scenario and
// DESIGN.md §10): named, seeded stress configurations that shape
// arrivals, move the power cap, trip DVFS throttling and window chaos
// presets over phases of one run.
type (
	// ChaosPlanner is the planner seam both a single ChaosPlan and a
	// phase-windowed composite satisfy (System.StreamFaults /
	// System.BridgeFaults accept either).
	ChaosPlanner = chaos.Planner
	// ChaosStackPhase names one gateway preset active while payload
	// virtual time is inside [T0, T1) (zero window = whole run).
	ChaosStackPhase = fleet.ChaosPhase
	// Scenario is one named deterministic stress configuration.
	Scenario = scenario.Scenario
	// ScenarioResult is one scenario run's outcome: the live run plus
	// the per-phase cap-tracking overlay.
	ScenarioResult = core.ScenarioResult
	// PhaseOvershoot scores measured power against the tracked cap over
	// one report phase.
	PhaseOvershoot = scenario.PhaseOvershoot
)

// ChaosStack composes gateway chaos presets into one phase-windowed
// fault plan: each preset strikes only while payload virtual time is
// inside its window, every packet is owned by at most one preset, and
// the composed ledger is the exact sum of the per-phase ledgers.
func ChaosStack(seed int64, phases ...ChaosStackPhase) (ChaosPlanner, error) {
	return fleet.ChaosStack(seed, phases...)
}

// Named scenarios (the full registry is enumerated by ScenarioNames).
const (
	ScenarioDiurnal       = scenario.ScenarioDiurnal
	ScenarioMMPPBurst     = scenario.ScenarioMMPPBurst
	ScenarioWeekendLull   = scenario.ScenarioWeekendLull
	ScenarioDRRamp        = scenario.ScenarioDRRamp
	ScenarioCarbonStep    = scenario.ScenarioCarbonStep
	ScenarioHeatSpike     = scenario.ScenarioHeatSpike
	ScenarioRampChaos     = scenario.ScenarioRampChaos
	ScenarioStaleBrownout = scenario.ScenarioStaleBrownout
)

// ScenarioNames lists the registered scenarios, sorted.
func ScenarioNames() []string { return scenario.Names() }

// GetScenario resolves a named scenario (read-only; copy before
// mutating).
func GetScenario(name string) (*Scenario, error) { return scenario.Get(name) }

// CapTrack reconstructs a scenario's ramp-limited cap trajectory and
// scores the measured machine power in a telemetry store against it,
// per report phase — the post-hoc overlay behind `egmon -cap-track`.
func CapTrack(src scenario.PowerSource, nodes int, nominalCapW, tickS, horizon float64, sc *Scenario) ([]PhaseOvershoot, error) {
	return scenario.CapTrack(src, nodes, nominalCapW, tickS, horizon, sc)
}

// WireCodec selects the batch wire format gateways publish: the
// compressed binary frame (default) or the original JSON text. Decoders
// sniff the format per payload, so mixed-codec fleets interoperate on
// one broker.
type WireCodec = gateway.Codec

// Batch wire codecs.
const (
	CodecBinary = gateway.CodecBinary
	CodecJSON   = gateway.CodecJSON
)

// ConstSignal returns a constant power signal, the simplest input for a
// standalone fleet replay (System.NodeSignal supplies scheduled traces).
func ConstSignal(watts float64) Signal { return sensor.Const(watts) }

// SubscribeTelemetry attaches a new aggregator to a broker.
func SubscribeTelemetry(brokerAddr, clientID string) (*Aggregator, *mqtt.Client, error) {
	return telemetry.Subscribe(brokerAddr, clientID)
}

// TelemetryIngest is a sharded parallel decode pool for an aggregator.
type TelemetryIngest = telemetry.Ingest

// Telemetry store: the compressed, multi-resolution back end behind the
// aggregator (see internal/tsdb) — Gorilla-compressed chunks with
// precomputed energy partial sums, 1 s/60 s rollups, raw retention.
type (
	// TelemetryStore is the sharded time-series store.
	TelemetryStore = tsdb.DB
	// StoreOptions tunes chunk size, rollup resolutions and retention.
	StoreOptions = tsdb.Options
	// StorePoint is one raw sample or downsampled bucket from Fetch.
	StorePoint = tsdb.Point
	// StoreStats summarises a store's footprint (bytes/sample, chunks).
	StoreStats = tsdb.Stats
)

// NewTelemetryStore creates a standalone telemetry store.
func NewTelemetryStore(opts StoreOptions) *TelemetryStore { return tsdb.New(opts) }

// SubscribeTelemetryOn attaches an aggregator that writes through to the
// caller's store, via a parallel decode pool (workers = 0 means one per
// CPU). Close the client first, then the ingest pool.
func SubscribeTelemetryOn(db *TelemetryStore, brokerAddr, clientID string, workers int) (*Aggregator, *TelemetryIngest, *mqtt.Client, error) {
	a := telemetry.NewAggregatorOn(db)
	in, c, err := a.AttachParallel(brokerAddr, clientID, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	return a, in, c, nil
}

// SubscribeTelemetryParallel attaches a new aggregator through a parallel
// decode pool (workers = 0 means one per CPU), so batch parsing scales
// with cores. Close the client first, then the ingest pool.
func SubscribeTelemetryParallel(brokerAddr, clientID string, workers int) (*Aggregator, *TelemetryIngest, *mqtt.Client, error) {
	return telemetry.SubscribeParallel(brokerAddr, clientID, workers)
}

// Observability: the allocation-free metrics fabric the plane publishes
// its own health into (see internal/obs and DESIGN.md §9). Set
// System.Obs (or PlaneSpec.Obs) to an ObsRegistry to instrument a
// replay or live run; serve it with ServeObs for Prometheus-text
// scrapes during the run.
type (
	// ObsRegistry is the sharded metric registry.
	ObsRegistry = obs.Registry
	// ObsServer is the /metrics HTTP endpoint over a registry.
	ObsServer = obs.Server
	// ObsStageTrace stamps telemetry batches at the five pipeline
	// stages (encode, fan-out, uplink, decode, commit) in virtual time.
	ObsStageTrace = obs.StageTrace
	// ObsSelfIngest writes registry snapshots into a health tsdb.
	ObsSelfIngest = core.SelfIngest
	// ObsMetric is one row of a registry snapshot.
	ObsMetric = obs.Metric
)

// NewObsRegistry creates an empty metric registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsSelfIngest creates a self-ingest sink that writes snapshots of
// reg into its own health tsdb (never the plant store).
func NewObsSelfIngest(reg *ObsRegistry) *ObsSelfIngest { return core.NewSelfIngest(reg) }

// ServeObs serves a registry's Prometheus-text exposition at
// http://addr/metrics (and an ASCII histogram view at /histograms).
func ServeObs(addr string, reg *ObsRegistry) (*ObsServer, error) { return obs.Serve(addr, reg) }

// Hardware and accounting.
type (
	// Node is one Garrison compute node.
	Node = node.Node
	// Cluster is the assembled pilot system.
	Cluster = cluster.Cluster
	// Ledger is the energy-accounting database.
	Ledger = accounting.Ledger
	// NodeCapper is the reactive power-capping controller.
	NodeCapper = capping.NodeCapper
	// EnergySession is the developer-facing energy API (§IV).
	EnergySession = energyapi.Session
	// EnergyReport is the TTS/ETS summary of an instrumented run.
	EnergyReport = energyapi.Report
)

// NewNode builds one Garrison node with the default configuration.
func NewNode(id int) (*Node, error) { return node.New(id, node.DefaultConfig()) }

// NewPilotCluster assembles the 45-node pilot.
func NewPilotCluster() (*Cluster, error) { return cluster.New(cluster.PilotConfig()) }

// NewNodeCapper attaches a reactive capping controller to a node.
func NewNodeCapper(n *Node) (*NodeCapper, error) { return capping.NewNodeCapper(n) }

// NewEnergySession opens an instrumented application run on a node.
func NewEnergySession(n *Node, clock func() float64) (*EnergySession, error) {
	return energyapi.NewSession(n, clock)
}

// Energy query service: the multi-tenant HTTP/JSON front end over the
// ledger, the telemetry store and the PowerAPI tree (see
// internal/energyserve and DESIGN.md §11). Bind a LivePlant from
// LiveConfig.OnPlant to serve a run while it is in flight.
type (
	// EnergyAPIServer is the query service.
	EnergyAPIServer = energyserve.Server
	// EnergyAPIOptions tunes quotas, cache and metrics.
	EnergyAPIOptions = energyserve.Options
	// EnergyAPIBackend is the queryable surface the service fronts.
	EnergyAPIBackend = energyserve.Backend
	// EnergyAPIClient is the typed HTTP client of the service.
	EnergyAPIClient = energyserve.Client
	// EnergyAPIQuotaError reports a 429 with its Retry-After hint.
	EnergyAPIQuotaError = energyserve.QuotaError
	// LivePlant is a live run's queryable surface, handed to
	// LiveConfig.OnPlant before the first tick.
	LivePlant = core.LivePlant
)

// NewEnergyAPIServer builds the query service without listening (drive
// its Handler directly, or embed it).
func NewEnergyAPIServer(opts EnergyAPIOptions) *EnergyAPIServer { return energyserve.NewServer(opts) }

// ServeEnergyAPI builds the query service and listens on addr (":0"
// picks a free port; Addr reports the bound one). Bind a backend before
// queries can succeed.
func ServeEnergyAPI(addr string, opts EnergyAPIOptions) (*EnergyAPIServer, error) {
	return energyserve.Serve(addr, opts)
}

// NewEnergyAPIClient targets a query service at base (host:port or full
// URL), identifying as tenant.
func NewEnergyAPIClient(base, tenant string) *EnergyAPIClient {
	return energyserve.NewClient(base, tenant)
}

// PowerAPI layer (§III-A1 mentions standardising on PowerAPI-style
// interfaces).
type (
	// PowerHierarchy is the PowerAPI object tree of a system.
	PowerHierarchy = powerapi.Hierarchy
	// PowerAttr identifies a measurable/controllable attribute.
	PowerAttr = powerapi.Attr
)

// PowerAPI attributes.
const (
	AttrPower     = powerapi.AttrPower
	AttrPowerCap  = powerapi.AttrPowerCap
	AttrFreq      = powerapi.AttrFreq
	AttrTemp      = powerapi.AttrTemp
	AttrPeakFlops = powerapi.AttrPeakFlops
)

// NewPowerHierarchy builds the PowerAPI tree for a cluster.
func NewPowerHierarchy(c *Cluster, nodesPerRack int) (*PowerHierarchy, error) {
	return powerapi.NewHierarchy(c, nodesPerRack)
}

// NewNodePowerHierarchy builds the per-node PowerAPI tree (the EG view).
func NewNodePowerHierarchy(n *Node) (*PowerHierarchy, error) {
	return powerapi.NewNodeHierarchy(n)
}
