type t = {
  pool : Pool.t option;
  faults : Fault.plan option;
  watchdog : float;
  sanitize : bool;
  nonce : int Atomic.t;
  aborted : Ompsan.aborted;
}

let make ?pool ?faults ?(watchdog = 0.0) ?(sanitize = false) () =
  {
    pool;
    faults;
    watchdog;
    sanitize;
    nonce = Atomic.make 0;
    aborted = Ompsan.aborted ();
  }

let default = make ()
let armed t = Option.is_some t.faults
let capture_deadlocks t = armed t || t.watchdog > 0.0

(* [next_nonce] returns old + 1, so landing on [n] means storing n - 1 *)
let pin t n = { t with nonce = Atomic.make (n - 1) }
let next_nonce t = Atomic.fetch_and_add t.nonce 1 + 1
