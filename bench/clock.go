package main

import "time"

// wallNow and wallSleep are the benchmark's only access to the wall clock:
// every latency, window and pacing decision goes through them, so the
// determinism lint's inventory shows one measurement-only site.
//
//duolint:allow walltime the benchmark measures wall-clock by design; nothing timed here feeds an attack or retrieval result
var wallNow, wallSleep = time.Now, time.Sleep

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// seconds converts fractional seconds to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
