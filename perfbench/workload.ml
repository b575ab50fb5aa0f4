(* The interface between one workload and bench.ml. *)

type outcome = {
  attempted : int;  (** ops attempted: requests, or experiment regenerations *)
  failed : int;
      (** ops whose output failed its check, or that the service lost *)
  fingerprint : string;
      (** digest of every exact output of the call (virtual times, cycle
          counts, checksums); equal calls must give equal digests *)
  sim_cycles : float;  (** simulated device cycles the call accounts *)
  exact : (string * float) list;
      (** exact end-to-end values read from the call's outputs, all in
          virtual time or counts *)
}

type checked = {
  reference_failures : int;
      (** outputs the reference pass itself found wrong; when there are
          any, every op counts as failed, since every op repeats that
          work *)
  exact : (string * float) list;
      (** exact end-to-end values the reference pass computes *)
  layered : Layers.t -> outcome;
      (** one op replayed call by call through each layer's public
          functions; with a live [Layers.t] every call is timed and every
          launch report folded *)
}

type prepared = {
  inputs : int;
      (** how many input sets the timed calls rotate over; the set-up
          call, the exact values and the traced replay use set 0 *)
  call : int -> unit -> outcome;
      (** [call k] is the timed entry call on input set [k]; the closure
          it returns checks that call's outputs, outside the timer *)
  references : unit -> checked;
      (** the independent references, computed once outside the timed
          phase and outside set-up *)
}

type t = {
  name : string;
  prepare : seed:int -> prepared;  (** generate the seeded inputs *)
}

let md5 s = Digest.to_hex (Digest.string s)
