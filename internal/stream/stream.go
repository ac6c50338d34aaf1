// Package stream is the campaign's streaming results plane. The final
// Result of a long campaign is a statistic — SDC rate with a Wilson
// interval over thousands of trials — yet it only materializes when
// the run ends, and a trial that exhausted its retries would vanish
// into a terminal errors.Join. Plane turns the live
// campaign.TrialRecord stream into something observable and lossless
// while it is still running. Each record is classified once and folded
// into one tally:
//
//   - a sliding 128-record window whose SDC rate shows a drift late in
//     a campaign against the lifetime rate;
//   - lifetime counts with the same Wilson interval the campaign's
//     early stop evaluates — early stopping itself still fires only at
//     round boundaries (campaign roundSize), never off this readout;
//   - a DLQ that quarantines retry-exhausted and malformed trials to
//     an fsync'd JSONL sidecar carrying the full per-attempt error
//     chain, replayed on open so a restart never duplicates an entry;
//   - throttled Fanout of progress frames to any number of taps, each
//     served by a non-blocking send — a slow or stalled subscriber (an
//     SSE client that wandered off) drops frames, never delays trial
//     execution.
//
// The campaign engine, the fleet coordinator and the job server all
// wire the plane in through a plain observer callback that runs on the
// producer's goroutine. The plane counts every record it is handed;
// keeping duplicates out is the caller's job (campaign.RunContext
// delivers each trial once, and the fleet coordinator filters
// steal-overlap and re-lease repeats). The plane is strictly
// observational on the result path: Result values and
// checkpoint-journal bytes are bit-identical with the plane enabled or
// disabled (pinned by test and CI smoke).
//
// Frame throttling is the plane's only wall-clock read, and it never
// feeds a frame's contents: the -progress readout's final line is the
// same bytes under any clock.
package stream
