// Package repro is a from-scratch Go reproduction of "OS-Based Sensor
// Node Platform and Energy Estimation Model for Health-Care Wireless
// Sensor Networks" (Rincón et al., DATE 2008).
//
// The repository implements the paper's complete system: an event-driven
// simulation framework (the paper builds on TOSSIM) for Body Area
// Networks made of MSP430F149 + nRF2401 biopotential sensor nodes running
// a TinyOS-like operating system and a TDMA MAC (static and dynamic
// variants), with per-component energy estimation (E = I·Vdd·t over
// power-state residencies) validated against the paper's published
// measurements.
//
// Layout:
//
//   - internal/sim        discrete-event kernel
//   - internal/energy     per-component/state energy ledger + loss categories
//   - internal/platform   datasheet constants and the calibrated cost model
//   - internal/packet     ShockBurst framing, CRC-16, protocol packets
//   - internal/codec      12-bit sample packing
//   - internal/channel    broadcast medium: collisions, BER, overhearing
//   - internal/radio      nRF2401 model (ShockBurst, hardware CRC/address check)
//   - internal/mcu        MSP430 model (active/power-save, cycle accounting)
//   - internal/tinyos     run-to-completion task scheduler, timers, power policy
//   - internal/asic       25-channel biopotential front-end
//   - internal/ecg        synthetic ECG generation + R-peak detector
//   - internal/mac        static and dynamic TDMA (nodes + base station)
//   - internal/app        ECG streaming and Rpeak applications
//   - internal/node       full node / base-station composition
//   - internal/core       scenario runner (the public façade)
//   - internal/analytic   closed-form duty-cycle model (cross-check)
//   - internal/paperdata  the paper's published tables
//   - internal/report     comparison rendering and error metrics
//   - internal/experiments table/figure regeneration
//   - internal/battery    lifetime projection (extension)
//
// internal/experiments is the one generator of every table, figure and
// extension experiment of the paper's evaluation: cmd/tables prints
// them (its full output is pinned by a golden test, and EXPERIMENTS.md
// is checked against it), cmd/timeline traces the Figure 2/3 protocol
// timelines from the experiments' scenario, and the benchmarks in
// bench_test.go only time the generators. cmd/bansim runs ad-hoc
// scenarios and examples/ holds runnable walkthroughs.
package repro
