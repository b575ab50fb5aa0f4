(* Per-warp slots for the layers above (see the interface): a field
   load costs <1ns against ~5ns for a Domain.DLS lookup, on paths taken
   millions of times per launch.  A value never outlives its block
   (warps are created per [Engine.run_block] and die with it). *)
type engine_sched = ..
type engine_sched += No_sched
type mem_session = ..
type mem_session += No_session
type fault_state = ..
type fault_state += No_faults
type san_state = ..
type san_state += No_san

type warp_state = {
  warp_index : int;
  lines : Linebuf.t;
  msession : mem_session;
  fault : fault_state;
  san : san_state;
  mutable esched : engine_sched;
  (* per-line atomic counts since the last sync point, as an
     open-addressing table over flat int arrays (keys as line+1 with
     0 = empty).  Each entry carries the generation it was written in:
     bumping [atomic_gen] at a barrier "clears" the table in O(1), and
     stale slots are reused in place / dropped on grow. *)
  mutable ae_keys : int array;
  mutable ae_gen : int array;
  mutable ae_cnt : int array;
  mutable ae_mask : int;
  mutable ae_filled : int;
  mutable atomic_gen : int;
  (* line-computation memo: 4-slot LRU of (base, line-start-addr, line),
     round-robin replacement; see Memory.account *)
  memo_base : int array;
  memo_lo : int array;
  memo_line : int array;
  mutable memo_next : int;
}

(* Timing state nested in an all-float record: flat storage, so the
   per-instruction clock/busy writes in [tick] do not allocate.  The
   same fields as mutable floats of the mixed outer record would box a
   fresh float each write. *)
type state = {
  mutable clock : float;
  mutable busy : float;
  mutable simt_factor : float;
}

type t = {
  block_id : int;
  tid : int;
  lane : int;
  warp : warp_state;
  cfg : Config.t;
  counters : Counters.t;
  trace : Trace.t option;
  st : state;
}

let make_warp ~(cfg : Config.t) ~warp_index ~msession ~fault ~san =
  {
    warp_index;
    lines =
      Linebuf.create ~capacity:cfg.linebuf_lines
        ~coalesce_window:cfg.coalesce_window;
    msession;
    fault;
    san;
    esched = No_sched;
    ae_keys = Array.make 64 0;
    ae_gen = Array.make 64 0;
    ae_cnt = Array.make 64 0;
    ae_mask = 63;
    ae_filled = 0;
    atomic_gen = 0;
    memo_base = Array.make 4 min_int;
    memo_lo = Array.make 4 0;
    memo_line = Array.make 4 0;
    memo_next = 0;
  }

let ae_hash line mask =
  let h = line * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land mask

(* Rebuild the epoch table keeping only current-generation entries;
   doubles when the live footprint itself is what filled the table. *)
let ae_grow w =
  let old_keys = w.ae_keys and old_gen = w.ae_gen and old_cnt = w.ae_cnt in
  let gen = w.atomic_gen in
  let live = ref 0 in
  Array.iteri (fun i k -> if k <> 0 && old_gen.(i) = gen then incr live) old_keys;
  let size = ref 64 in
  while 4 * (!live + 1) > 3 * !size do
    size := 2 * !size
  done;
  let keys = Array.make !size 0 in
  let gens = Array.make !size 0 in
  let cnts = Array.make !size 0 in
  let mask = !size - 1 in
  Array.iteri
    (fun i k ->
      if k <> 0 && old_gen.(i) = gen then begin
        let s = ref (ae_hash (k - 1) mask) in
        while keys.(!s) <> 0 do
          s := (!s + 1) land mask
        done;
        keys.(!s) <- k;
        gens.(!s) <- gen;
        cnts.(!s) <- old_cnt.(i)
      end)
    old_keys;
  w.ae_keys <- keys;
  w.ae_gen <- gens;
  w.ae_cnt <- cnts;
  w.ae_mask <- mask;
  w.ae_filled <- !live

(* Count an atomic on [line]; returns how many the warp already issued to
   that line this epoch.  Stale-generation slots count as free for
   insertion: overwriting one keeps the slot non-empty, so probe chains
   through it stay intact, and the entry it shadowed was dead anyway. *)
let ae_bump w line =
  let key = line + 1 in
  let gen = w.atomic_gen in
  let mask = w.ae_mask in
  let keys = w.ae_keys in
  let gens = w.ae_gen in
  let i = ref (ae_hash line mask) in
  let reuse = ref (-1) in
  let result = ref (-1) in
  while !result < 0 do
    let k = keys.(!i) in
    if k = 0 then begin
      (* not present: insert at the first stale slot seen, else here *)
      let s = if !reuse >= 0 then !reuse else i.contents in
      if keys.(s) = 0 then w.ae_filled <- w.ae_filled + 1;
      keys.(s) <- key;
      gens.(s) <- gen;
      w.ae_cnt.(s) <- 1;
      result := 0
    end
    else if k = key then
      if gens.(!i) = gen then begin
        let p = w.ae_cnt.(!i) in
        w.ae_cnt.(!i) <- p + 1;
        result := p
      end
      else begin
        gens.(!i) <- gen;
        w.ae_cnt.(!i) <- 1;
        result := 0
      end
    else begin
      if !reuse < 0 && gens.(!i) <> gen then reuse := !i;
      i := (!i + 1) land mask
    end
  done;
  if 4 * (w.ae_filled + 1) > 3 * (mask + 1) then ae_grow w;
  !result

let create ~cfg ~counters ?trace ~block_id ~tid ~warp () =
  {
    block_id;
    tid;
    lane = tid mod cfg.Config.warp_size;
    warp;
    cfg;
    counters;
    trace;
    st = { clock = 0.0; busy = 0.0; simt_factor = 1.0 };
  }

let[@inline] clock t = t.st.clock
let[@inline] faults t = t.warp.fault != No_faults
let[@inline] sanitize t = t.warp.san != No_san
let[@inline] busy t = t.st.busy
let[@inline] simt_factor t = t.st.simt_factor

let[@inline] tick t c =
  let st = t.st in
  st.clock <- st.clock +. c;
  let charged = c *. st.simt_factor in
  st.busy <- st.busy +. charged;
  let f = t.counters.Counters.f in
  f.Counters.lane_busy_cycles <- f.Counters.lane_busy_cycles +. charged

let with_simt_factor t factor f =
  if factor < 1.0 then invalid_arg "Thread.with_simt_factor: factor < 1";
  let st = t.st in
  let saved = st.simt_factor in
  st.simt_factor <- factor;
  match f () with
  | v ->
      st.simt_factor <- saved;
      v
  | exception e ->
      st.simt_factor <- saved;
      raise e

let[@inline] set_simt_factor t factor = t.st.simt_factor <- factor
let[@inline] tick_wait t c = t.st.clock <- t.st.clock +. c

let[@inline] align_clock t target = if t.st.clock < target then t.st.clock <- target

let[@inline] tracing t = match t.trace with None -> false | Some _ -> true

let trace t ~tag detail =
  Trace.record t.trace ~time:t.st.clock ~block:t.block_id ~tid:t.tid ~tag detail
