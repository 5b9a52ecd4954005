// Package ctxtune is the contextual tuning subsystem: it conditions the
// two-phase autotuner's algorithm choice on a per-request feature vector
// instead of forcing one global winner onto every input.
//
// The paper's Hybrid string matcher already picks by a single input
// feature (pattern length), and extension X4 showed a per-context tuner
// family halving total time on alternating traffic. This package
// promotes that idea to a first-class routing layer over the concurrent
// trial engine:
//
//   - Requests carry a Features vector — input size, alphabet/corpus
//     class, scene depth, whatever the workload can describe about the
//     input it is about to process. Features are plain float64s so they
//     cross the wire as an additive JSON field.
//   - A Partitioner maps features to a context ID. The Tree partitioner
//     starts from quantized hash buckets and refines online: when a
//     bucket's observed cost distribution is bimodal across a feature
//     threshold (min-samples and min-lift gated), the bucket splits into
//     two child contexts.
//   - An Engine maintains one replica per context: each context gets its
//     own lease-based trial engine, built beside the global engine by
//     core.NewContextualTuner and sharing its mutex. A new context's
//     selector is warm-started from the global selector's state, so it
//     does not relearn from scratch, and the global selector learns from
//     every context's successful trials in turn.
//   - With a checkpoint directory the engine has one durable log, the
//     global engine's journal: every replica's completions, failures
//     and drift resets are records tagged with their context, each
//     replica's birth and every split is a record too, and snapshots
//     carry the partitioner and every replica's full state. A restarted
//     server replays that log and comes back with every context it had
//     learned and what each had learned, losing at most the trials of an
//     operation cut by the crash.
//
// The tuned server routes feature-bearing LeaseN requests through this
// engine; requests without features land on the global context, so a
// client that sends none tunes as against a plain engine.
package ctxtune

// Features is a per-request feature vector. Nil or empty means "no
// features" and routes to the global context. It is a type alias so wire
// payloads ([]float64) pass through without conversion.
type Features = []float64

// GlobalContext is the context ID of feature-less traffic: the global
// engine itself, not a partitioned replica.
const GlobalContext = "g"
