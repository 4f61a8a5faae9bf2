#pragma once

// Checkpoint records in the retired v1 format, byte for byte as the v1
// writers (io::WriteEngineCheckpoint and shard::WriteFleetCheckpoint
// before `engine-checkpoint v2`) emitted them, so the tests can pin that
// the current reader still restores them.  Each one is the state of a
// run that the test using it replays with the current engine:
//
//   * kEngineCheckpointV1 — engine_checkpoint_test's RestoresV1Record
//     scenario after 4 of its 8 epochs: re-solves failing under injected
//     greedy-round throws, so the record says `mode patch-only`, carries
//     a failure streak of 4 and nonzero qsample mode tokens.
//   * kFleetCheckpointV1 — shard_checkpoint_test's RestoresV1FleetFile
//     scenario after 4 of its 8 epochs: a `shardfleet v1` file embedding
//     two `engine-checkpoint v1` blocks.

namespace tdmd::test {

inline constexpr char kEngineCheckpointV1[] = R"v1(engine-checkpoint v1
epoch 4
snapshot-version 5
mode patch-only
consecutive-failures 4
epochs-since-probe 3
pending-churn 27
k 5
lambda 0x1p-1
num-vertices 12
bandwidth 0x1.24p+7
feasible 1
counter epochs 4
counter arrivals 24
counter departures 9
counter stale_departures 0
counter index_delta_ops 78
counter index_fault_retries 0
counter patches 1
counter patch_boxes 1
counter adoptions 0
counter middlebox_moves 0
counter resolves_started 4
counter resolves_completed 0
counter resolves_cancelled 0
counter resolve_failures 4
counter resolve_timeouts 0
counter resolve_retries 3
counter resolves_expired_adopted 0
counter resolves_coalesced 0
counter watchdog_cancels 0
counter mode_transitions 2
counter degraded_epochs 0
counter patch_only_epochs 3
counter consecutive_failures 4
counter gain_reevals 0
counter reevals_saved 0
counter snapshots_published 5
deployment 1
box 0
uncovered 0
flows 15
flow 4294967296 10 6 7 0
flow 4294967297 8 4 0
flow 4294967298 8 8 9 0
flow 8589934595 6 4 0
flow 4294967300 11 3 0
flow 5 4 7 0
flow 4294967302 11 4 0
flow 4294967303 10 6 7 0
flow 8 1 5 9 0
flow 9 4 8 9 0
flow 10 3 10 6 7 0
flow 11 8 9 0
flow 4294967308 4 5 9 0
flow 13 5 8 9 0
flow 14 5 9 0
free-slots 0
histograms 4
histogram patch 4 3754 35 3548 4
bucket 24 1
bucket 34 1
bucket 35 1
bucket 77 1
histogram resolve 4 84055 5452 59040 4
bucket 82 1
bucket 87 1
bucket 91 1
bucket 110 1
histogram index-delta 4 19106 2308 10691 4
bucket 73 1
bucket 75 1
bucket 76 1
bucket 90 1
histogram greedy-round 6 69722 2318 50889 6
bucket 73 1
bucket 74 1
bucket 79 1
bucket 80 1
bucket 82 1
bucket 108 1
quality v1
qbound 0 0x0p+0
qadoption-age 4
qattr 1
qv 0 0x0p+0
qdetector 0x0p+0 1 0x1.10721b1b65531p+1 1 4 1 0
qsamples 4
qsample 1 2 0 1 1 5 1 1 0 0x1.e8p+5 0x1.e8p+5 0x1.e8p+4 1
qv 0 0x0p+0
qsample 2 3 2 1 1 5 0 2 0 0x1.9cp+6 0x1.9cp+6 0x1.9cp+5 1
qv 0 0x0p+0
qsample 3 4 2 1 1 5 0 3 0 0x1.06p+7 0x1.06p+7 0x1.06p+6 1
qv 0 0x0p+0
qsample 4 5 2 1 1 5 0 4 0 0x1.24p+7 0x1.24p+7 0x1.24p+6 1
qv 0 0x0p+0
qalerts 1
qalert 0 1 2 0x1.10721b1b65531p+0 0x1p+0
end quality
end engine-checkpoint
)v1";

inline constexpr char kFleetCheckpointV1[] = R"v1(shardfleet v1
num-shards 2
partition-method bfs
partition-seed 1
epoch 4
next-flow-id 24
budget 0 2
budget 1 2
flow-table 15
entry 5 1 2
entry 6 1 4294967296
entry 7 1 3
entry 11 1 5
entry 13 1 4294967300
entry 14 0 4294967296
entry 15 1 6
entry 16 0 3
entry 17 1 7
entry 18 0 12884901889
entry 19 1 4294967297
entry 20 0 8589934594
entry 21 1 8
entry 22 0 4
entry 23 1 9
shard 0
engine-checkpoint v1
epoch 4
snapshot-version 9
mode normal
consecutive-failures 0
epochs-since-probe 0
pending-churn 0
k 2
lambda 0x1p-1
num-vertices 16
bandwidth 0x1.58p+4
feasible 1
counter epochs 4
counter arrivals 11
counter departures 6
counter stale_departures 0
counter index_delta_ops 64
counter index_fault_retries 0
counter patches 1
counter patch_boxes 1
counter adoptions 4
counter middlebox_moves 13
counter resolves_started 4
counter resolves_completed 4
counter resolves_cancelled 0
counter resolve_failures 0
counter resolve_timeouts 0
counter resolve_retries 0
counter resolves_expired_adopted 0
counter resolves_coalesced 0
counter watchdog_cancels 0
counter mode_transitions 0
counter degraded_epochs 0
counter patch_only_epochs 0
counter consecutive_failures 0
counter gain_reevals 81
counter reevals_saved 206
counter snapshots_published 9
deployment 2
box 6
box 7
uncovered 0
flows 5
flow 4294967296 1 10 7 0
flow 12884901889 7 7 0
flow 8589934594 6 6 9 0
flow 3 5 12 7 0
flow 4 3 6 9 0
free-slots 0
histograms 4
histogram patch 4 2411 47 1924 4
bucket 27 1
bucket 34 1
bucket 51 1
bucket 71 1
histogram resolve 4 19619 3579 5854 4
bucket 77 1
bucket 81 1
bucket 82 1
bucket 83 1
histogram index-delta 4 9665 1229 3904 4
bucket 65 1
bucket 72 1
bucket 73 1
bucket 79 1
histogram greedy-round 8 11130 691 2272 7
bucket 58 1
bucket 60 1
bucket 65 1
bucket 66 2
bucket 69 1
bucket 70 1
bucket 72 1
quality v1
qbound 1 0x1.9p+4
qadoption-age 0
qattr 2
qv 6 0x1.2p+3
qv 7 0x1.ap+2
qdetector 0x1.9c00499a49f4dp-2 1 0x1.02dd0f2ac28d4p-1 0 8 0 0
qsamples 8
qsample 1 2 0 1 1 2 1 1 0 0x1.5p+4 0x1.5p+4 0x1.5p+3 1
qv 0 0x0p+0
qsample 1 3 0 1 2 2 3 0 0 0x1.7p+3 0x1.5p+4 0x1.5p+3 2
qv 7 0x1.ap+2
qv 15 0x1.8p+1
qsample 2 4 0 0 2 2 0 1 0 0x1.58p+4 0x1.ep+4 0x1.ep+3 2
qv 7 0x1.ap+2
qv 15 0x1.8p+1
qsample 2 5 0 1 2 2 4 0 0 0x1.5p+4 0x1.ep+4 0x1.ep+3 2
qv 12 0x1.2p+3
qv 0 0x0p+0
qsample 3 6 0 1 2 2 0 1 0 0x1.08p+5 0x1.3p+5 0x1.3p+4 2
qv 12 0x1.2p+3
qv 0 0x0p+0
qsample 3 7 0 1 2 2 2 0 0 0x1.bp+4 0x1.3p+5 0x1.3p+4 2
qv 4 0x1.6p+3
qv 0 0x0p+0
qsample 4 8 0 1 2 2 0 1 0 0x1.28p+5 0x1.28p+5 0x1.28p+4 2
qv 4 0x1.6p+3
qv 0 0x0p+0
qsample 4 9 0 1 2 2 4 0 0 0x1.58p+4 0x1.28p+5 0x1.28p+4 2
qv 6 0x1.2p+3
qv 7 0x1.ap+2
qalerts 0
end quality
end engine-checkpoint
shard 1
engine-checkpoint v1
epoch 4
snapshot-version 7
mode normal
consecutive-failures 0
epochs-since-probe 0
pending-churn 0
k 2
lambda 0x1p-1
num-vertices 16
bandwidth 0x1.5cp+6
feasible 1
counter epochs 4
counter arrivals 13
counter departures 3
counter stale_departures 0
counter index_delta_ops 60
counter index_fault_retries 0
counter patches 1
counter patch_boxes 1
counter adoptions 2
counter middlebox_moves 5
counter resolves_started 4
counter resolves_completed 4
counter resolves_cancelled 0
counter resolve_failures 0
counter resolve_timeouts 0
counter resolve_retries 0
counter resolves_expired_adopted 0
counter resolves_coalesced 0
counter watchdog_cancels 0
counter mode_transitions 0
counter degraded_epochs 0
counter patch_only_epochs 0
counter consecutive_failures 0
counter gain_reevals 91
counter reevals_saved 305
counter snapshots_published 7
deployment 2
box 7
box 0
uncovered 0
flows 10
flow 4294967296 12 13 0
flow 4294967297 8 11 10 7 0
flow 2 3 7 0
flow 3 12 7 0
flow 4294967300 6 3 7 0
flow 5 3 9 0
flow 6 3 9 0
flow 7 6 15 3 7 0
flow 8 5 4 7 0
flow 9 4 5 10 7 0
free-slots 0
histograms 4
histogram patch 4 3805 37 3292 4
bucket 25 1
bucket 28 1
bucket 53 1
bucket 76 1
histogram resolve 4 21455 4730 6897 2
bucket 81 3
bucket 85 1
histogram index-delta 4 9671 1244 3268 4
bucket 65 1
bucket 72 1
bucket 75 1
bucket 76 1
histogram greedy-round 8 14882 1244 3206 7
bucket 65 1
bucket 67 1
bucket 68 2
bucket 69 1
bucket 70 1
bucket 72 1
bucket 76 1
quality v1
qbound 1 0x1.2p+5
qadoption-age 2
qattr 2
qv 7 0x1.fp+3
qv 0 0x0p+0
qdetector 0x1.5f2b25ec1db0ep-2 1 0x1.e991096d1ea1fp-2 0 6 0 0
qsamples 6
qsample 1 2 0 1 1 2 1 1 0 0x1.6p+5 0x1.6p+5 0x1.6p+4 1
qv 0 0x0p+0
qsample 1 3 0 1 2 2 3 0 0 0x1.bp+4 0x1.6p+5 0x1.6p+4 2
qv 5 0x1.5p+3
qv 7 0x1.ap+2
qsample 2 4 0 0 2 2 0 1 0 0x1.74p+5 0x1.fp+5 0x1.fp+4 2
qv 5 0x1.5p+3
qv 7 0x1.ap+2
qsample 2 5 0 1 2 2 2 0 1 0x1.74p+5 0x1.fp+5 0x1.a8p+4 2
qv 7 0x1.fp+3
qv 0 0x0p+0
qsample 3 6 0 1 2 2 0 1 0 0x1.02p+6 0x1.4cp+6 0x1.4cp+5 2
qv 7 0x1.fp+3
qv 0 0x0p+0
qsample 4 7 0 1 2 2 0 2 1 0x1.5cp+6 0x1.b4p+6 0x1.acp+5 2
qv 7 0x1.fp+3
qv 0 0x0p+0
qalerts 0
end quality
end engine-checkpoint
end shardfleet
)v1";

}  // namespace tdmd::test
