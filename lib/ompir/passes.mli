(** The optimization pipeline: named semantics-preserving kernel
    transforms, composable and individually testable.

    Passes operate before outlining and walk kernels through {!Visit}:
    every renaming and substitution follows its scope rules.  Each pass
    is checked to preserve well-formedness when the input was
    well-formed; the differential test suite cross-checks results
    against unoptimized execution, and no pass may introduce a static
    may-race finding ({!Racecheck}) — transforms that would are
    reverted.

    Pipelines are described by a small spec language (the
    [OMPSIMD_PASSES] environment variable): a comma-separated list of
    pass names, each optionally carrying an integer argument
    ([unroll:16], [tile:8]) and an OptiTrust-style loop target
    ([licm@i] applies to loops over [i]; [fuse@#2] to the loop at
    pre-order position 2). *)

type pass = { name : string; transform : Ir.kernel -> Ir.kernel }

(** {1 Loop targeting} *)

type target =
  | T_all  (** every loop *)
  | T_var of string  (** loops with this induction variable *)
  | T_nth of int  (** the [n]th loop in pre-order, 0-based *)

val warp_width : int
(** The warp width the pipeline tiles and unrolls against (32). *)

(** {1 Passes} *)

val fold : pass
(** Constant folding / simplification ({!Fold}). *)

val dce : pass
(** Dead-code elimination: drops declarations never read and assignments
    to scalars never read afterwards, when the right-hand side is pure
    (loads stay — they can trap).  A reduction's summand reads in its
    body's scope, so the body declarations it reads stay. *)

val unroll : ?max_trip:int -> ?simd_trip:int -> ?target:target -> unit -> pass
(** Full unrolling of loops with a small literal trip count.  Sequential
    [For] loops replicate exactly up to [max_trip] (default 8)
    iterations, atomics included — which is what unrolls the
    literal-bound inner loops the {!collapse} pass leaves behind.  Each
    replica renames the body's top-level declarations apart
    ({!Visit.rename}: assignments and accumulators follow) and reads the
    iteration's literal for the loop variable ({!Visit.subst}).  [simd]
    loops are replicated into straight region code up to [simd_trip]
    trips (default [min max_trip 8]; every lane executes every replica,
    and the rewrite erases the loop's parallel structure, so the default
    pipeline and the spec language run with [simd_trip = 0] — simd
    replication is API-only). *)

val licm : ?target:target -> unit -> pass
(** Loop-invariant code motion: hoists invariant top-level declarations
    out of [For], [simd] and parallel loops under fresh names.  Loads
    hoist only out of provably non-empty loops. *)

val strength_reduce : ?target:target -> unit -> pass
(** Rewrite [i * stride] index math in sequential loops into an additive
    recurrence (integer strides only, so the result is bit-exact). *)

val collapse : ?target:target -> unit -> pass
(** De-flatten the div/mod decoder prologue emitted by
    {!Ir.collapsed_distribute_parallel_for} back into an explicit
    rectangular nest: the outermost recovered index keeps the parallel
    directive, inner indices become plain [For] loops, and the hot path
    loses its divisions and modulos. *)

val interchange : ?target:target -> unit -> pass
(** Swap a perfect sequential [For] 2-nest when iterations are provably
    independent (local-only scalars, affine row-major stores, no
    atomics or syncs). *)

val fuse : ?target:target -> unit -> pass
(** Fuse adjacent [simd] (or adjacent sequential [For]) loops over the
    same iteration space whose bodies are independent; chains fuse.  The
    second body is renamed apart and its induction variable mapped onto
    the first's. *)

val tile : ?width:int -> ?target:target -> unit -> pass
(** Tile a [simd] loop to the warp width (default {!warp_width}): an
    outer sequential tile loop around a [simd] loop of at most [width]
    iterations, so each round maps one-to-one onto a full warp.
    @raise Invalid_argument if [width <= 0]. *)

val spmdize_upgrade : pass
(** When {!Racecheck} finds nothing and some region is still generic,
    apply {!Spmdize.guardize} so every region runs SPMD. *)

(** {1 Pipelines} *)

val default_pipeline : pass list
(** [fold; unroll; dce] — what {!Openmp.Offload.compile} applies by
    default.  [unroll] is promoted with the sequential-loop limit raised
    to {!warp_width} and simd replication off (structure-preserving). *)

val known_passes : string list
(** Spec-language pass names, for error messages and tooling. *)

val pass_of_spec : string -> pass
(** One spec item, e.g. ["unroll:16@i"].
    @raise Invalid_argument on an unknown pass, malformed argument or
    malformed target; messages name [OMPSIMD_PASSES]. *)

val pipeline_of_spec : string -> pass list
(** A full comma-separated spec.  [""] and ["default"] give
    {!default_pipeline}; ["none"] gives the empty pipeline.
    @raise Invalid_argument as {!pass_of_spec}, plus on empty items. *)

val run : pass list -> Ir.kernel -> Ir.kernel

val run_verified :
  pass list -> Ir.kernel -> (Ir.kernel, string * Check.error list) result
(** Like {!run} but re-checks well-formedness after every pass, reporting
    the name of the first pass that broke the kernel.  It catches a
    transform that leaves a name unbound, a type wrong or a directive
    misplaced; it cannot catch one that produces a well-formed kernel
    computing something else — the differential tests look for those.  Every production
    compile runs through it ([Openmp.Offload.compile]), so a kernel is
    checked once per pass on top of the initial check; each
    {!Check.kernel} is linear (expected) in the kernel's size. *)
