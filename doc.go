// Package davide is the root of the D.A.V.I.D.E. reproduction: an
// energy-aware petaflops-class HPC cluster simulator and telemetry stack
// after Abu Ahmad et al., "Design of an Energy Aware peta-flops Class High
// Performance Cluster Based on Power Architecture" (IPDPS-W 2017).
//
// It holds no code of its own, only the cross-package experiment suites
// (E18–E24) in its test files. The programs under cmd/ and examples/, like
// bench/, import the packages under internal/ directly; DESIGN.md has the
// module map.
package davide
