(* Online-schema-change benchmark.

   One closed-loop client drives the engine from a single thread: it
   sends its next transaction when the previous one commits. A run of a
   workload goes through six steps:

   1. build a persisted database, load the seeded sources, checkpoint;
   2. warm up;
   3. measure the workload with no change running (control);
   4. start the change through [Db.Schema_change.start] and measure the
      same workload while the change's quanta get a fixed share of wall
      time, in slices of bounded length, until the change is [Done];
   5. reopen a crash image taken the moment the change's population
      completed, and time recovery plus resume up to [Done];
   6. check every output against the benchmark's own model of the
      committed writes and oracles computed apart from the engine.

   An untraced run makes [rounds] such rounds. A transaction's latency
   runs from the moment the client was ready to send it, once it has
   generated it, so job slices scheduled between two transactions count
   against the next one. [--trace 1] makes a separate run that records
   spans around every call into a layer and prints the per-layer
   metrics; [--trace 0] prints the end-to-end metrics. *)

open Nbsc_value
module Db = Nbsc_core.Db
module Schema_change = Db.Schema_change
module Options = Nbsc_core.Options
module Spec = Nbsc_core.Spec
module Transform = Nbsc_core.Transform
module Persist = Nbsc_engine.Persist
module Disk_format = Nbsc_engine.Disk_format
module Recovery = Nbsc_engine.Recovery
module Manager = Nbsc_txn.Manager
module Obs = Nbsc_obs.Obs
module Table = Nbsc_storage.Table
module Record = Nbsc_storage.Record
module Relalg = Nbsc_relalg.Relalg
module Log = Nbsc_wal.Log
module Log_record = Nbsc_wal.Log_record
module Lsn = Nbsc_wal.Lsn

exception Divergence of string

let diverged fmt = Printf.ksprintf (fun m -> raise (Divergence m)) fmt
let fail fmt = Printf.ksprintf failwith fmt
let note fmt = Printf.eprintf (fmt ^^ "\n%!")

(* {1 Clock}

   Monotonic wall time in seconds, at nanosecond resolution, minus the
   time spent on bookkeeping the measurement must not see (taking the
   crash image mid-change). *)

let excluded = ref 0.
let raw_clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let clock () = raw_clock () -. !excluded

let excluding f =
  let t0 = raw_clock () in
  let r = f () in
  excluded := !excluded +. (raw_clock () -. t0);
  r

(* {1 Samples} *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s

  (* Nearest-rank quantile. *)
  let quantile t q =
    if t.n = 0 then nan
    else
      let s = sorted t in
      let i = int_of_float (Float.ceil (q *. float_of_int t.n)) - 1 in
      s.(max 0 (min (t.n - 1) i))

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  let mean t = if t.n = 0 then nan else sum t /. float_of_int t.n
end

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* {1 Spans}

   Kept in memory during the traced run and written out at its end. A
   span covers one call the benchmark makes into a layer's public
   function; [tag] groups spans: the transaction sequence number for
   transaction calls, the quantum number for job quanta. *)

module Trace = struct
  let names =
    [| "txn"; "txn.read"; "txn.snapshot_read"; "txn.update"; "txn.insert";
       "txn.delete"; "txn.commit"; "txn.abort"; "txn.begin"; "core.quantum";
       "core.start"; "engine.setup"; "engine.checkpoint"; "engine.open";
       "core.resume"; "txn.gc_versions" |]

  let k_txn = 0
  let k_read = 1
  let k_snapshot_read = 2
  let k_update = 3
  let k_insert = 4
  let k_delete = 5
  let k_commit = 6
  let k_abort = 7
  let k_begin = 8
  let k_quantum = 9
  let k_start = 10
  let k_setup = 11
  let k_checkpoint = 12
  let k_open = 13
  let k_resume = 14
  let k_gc = 15

  type t = {
    mutable kind : int array;
    mutable tag : int array;
    mutable t0 : float array;
    mutable t1 : float array;
    mutable n : int;
  }

  let create () =
    let c = 1 lsl 16 in
    { kind = Array.make c 0; tag = Array.make c 0; t0 = Array.make c 0.;
      t1 = Array.make c 0.; n = 0 }

  let grow t =
    let c = 2 * Array.length t.kind in
    let gi a = let b = Array.make c 0 in Array.blit a 0 b 0 t.n; b in
    let gf a = let b = Array.make c 0. in Array.blit a 0 b 0 t.n; b in
    t.kind <- gi t.kind;
    t.tag <- gi t.tag;
    t.t0 <- gf t.t0;
    t.t1 <- gf t.t1

  let record t kind tag t0 t1 =
    if t.n = Array.length t.kind then grow t;
    t.kind.(t.n) <- kind;
    t.tag.(t.n) <- tag;
    t.t0.(t.n) <- t0;
    t.t1.(t.n) <- t1;
    t.n <- t.n + 1

  (* Per-kind (count, total seconds, calls over 1 ms). *)
  let totals t =
    let k = Array.length names in
    let count = Array.make k 0 and busy = Array.make k 0. in
    let over = Array.make k 0 in
    for i = 0 to t.n - 1 do
      let d = t.t1.(i) -. t.t0.(i) in
      let j = t.kind.(i) in
      count.(j) <- count.(j) + 1;
      busy.(j) <- busy.(j) +. d;
      if d > 1e-3 then over.(j) <- over.(j) + 1
    done;
    (count, busy, over)

  let write t path =
    let oc = open_out path in
    let base = if t.n > 0 then t.t0.(0) else 0. in
    for i = 0 to t.n - 1 do
      Printf.fprintf oc
        "{\"name\":%S,\"tag\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n"
        names.(t.kind.(i)) t.tag.(i)
        ((t.t0.(i) -. base) *. 1e6)
        ((t.t1.(i) -. base) *. 1e6)
    done;
    close_out oc
end

(* {1 The model}

   The benchmark's own record of every committed write, kept apart from
   the engine. Each source table is a hash table from its integer key to
   the row; [live] holds the keys a generator may delete. *)

module Keyset = struct
  type t = { mutable a : int array; mutable n : int; pos : (int, int) Hashtbl.t }

  let create () = { a = Array.make 1024 0; n = 0; pos = Hashtbl.create 1024 }

  let add t k =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- k;
    Hashtbl.replace t.pos k t.n;
    t.n <- t.n + 1

  let remove t k =
    match Hashtbl.find_opt t.pos k with
    | None -> ()
    | Some i ->
      let last = t.a.(t.n - 1) in
      t.a.(i) <- last;
      Hashtbl.replace t.pos last i;
      Hashtbl.remove t.pos k;
      t.n <- t.n - 1

  let random t rng = t.a.(Random.State.int rng t.n)
end

type mtable = {
  m_name : string;
  m_schema : Schema.t;
  rows : (int, Row.t) Hashtbl.t;
  tracked : int -> bool;  (** whether a key joins [live] *)
  live : Keyset.t;
}

let mtable name schema ~tracked =
  { m_name = name; m_schema = schema; rows = Hashtbl.create 65536; tracked;
    live = Keyset.create () }

type op =
  | Read of { table : string; key : int; expect : Row.t option }
  | Update of { table : string; key : int; changes : (int * Value.t) list }
  | Insert of { table : string; row : Row.t }
  | Delete of { table : string; key : int }

type txn = {
  iso : Manager.isolation;
  ops : op list;
  undo : (unit -> unit) list;  (** model changes, newest first *)
}

(* Generators apply each write to the model as they emit it, so later
   operations of the same transaction see earlier ones, and record how
   to take it back should the transaction never commit. *)
type draft = { mutable b_ops : op list; mutable b_undo : (unit -> unit) list }

let draft () = { b_ops = []; b_undo = [] }

let emit b op = b.b_ops <- op :: b.b_ops

let finish b iso = { iso; ops = List.rev b.b_ops; undo = b.b_undo }

let m_read b t key =
  emit b (Read { table = t.m_name; key; expect = Hashtbl.find_opt t.rows key })

let m_update b t key changes =
  let old = Hashtbl.find t.rows key in
  Hashtbl.replace t.rows key (Row.update old changes);
  b.b_undo <- (fun () -> Hashtbl.replace t.rows key old) :: b.b_undo;
  emit b (Update { table = t.m_name; key; changes })

let m_insert b t key row =
  Hashtbl.replace t.rows key row;
  if t.tracked key then Keyset.add t.live key;
  b.b_undo <-
    (fun () -> Hashtbl.remove t.rows key; Keyset.remove t.live key)
    :: b.b_undo;
  emit b (Insert { table = t.m_name; row })

let m_delete b t key =
  let old = Hashtbl.find t.rows key in
  Hashtbl.remove t.rows key;
  Keyset.remove t.live key;
  b.b_undo <-
    (fun () ->
       Hashtbl.replace t.rows key old;
       if t.tracked key then Keyset.add t.live key)
    :: b.b_undo;
  emit b (Delete { table = t.m_name; key })

let discard tx = List.iter (fun f -> f ()) tx.undo

let int_key row = match Row.get row 0 with Value.Int k -> k | _ -> 0

(* Apply a transaction's writes to the model again after [discard]. *)
let redo tables tx =
  let find name = List.find (fun t -> String.equal t.m_name name) tables in
  List.iter
    (function
      | Read _ -> ()
      | Update { table; key; changes } ->
        let t = find table in
        Hashtbl.replace t.rows key (Row.update (Hashtbl.find t.rows key) changes)
      | Insert { table; row } ->
        let t = find table in
        Hashtbl.replace t.rows (int_key row) row;
        if t.tracked (int_key row) then Keyset.add t.live (int_key row)
      | Delete { table; key } ->
        let t = find table in
        Hashtbl.remove t.rows key;
        Keyset.remove t.live key)
    tx.ops

let rows_of_table t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.rows []

(* A view of the committed source state: the live model, or a copy of it
   taken with the crash image. *)
type view = (string * Schema.t * Row.t list) list

let view_of tables : view =
  List.map (fun t -> (t.m_name, t.m_schema, rows_of_table t)) tables

let relation (v : view) name =
  let _, schema, rows = List.find (fun (n, _, _) -> String.equal n name) v in
  Relalg.make schema rows

(* {1 Workloads}

   Where a figure comes from the paper's evaluation, as this repository
   reproduces it ([lib/sim], DESIGN.md's experiment index), or from a
   public workload spec, the comment says so; the other figures are
   chosen, and the comment names the layer they load. *)

type sizes = {
  rows : int;       (** R rows (FOJ) or T rows (split) *)
  s_rows : int;     (** S rows (FOJ) or distinct split-key values *)
  warmup : int;     (** transactions *)
  control : int;    (** control transactions per second of [--seconds], over all rounds *)
}

type workload = {
  w_name : string;
  sizes : sizes;
  tables : mtable list;          (** sources, with the seeded initial rows *)
  spec : Spec.any;
  options : Options.t;
  next : unit -> txn;            (** the next transaction, from the seed *)
  oracle : view -> (string * Relalg.t) list;  (** expected targets *)
  check_records : Db.t -> view -> unit;  (** per-record invariants *)
  share : float;                 (** the job's share of wall time *)
  slice_s : float;               (** the longest job slice *)
}

let int_col ?(nullable = true) n = Schema.column ~nullable n Value.TInt
let text_col n = Schema.column n Value.TText

(* The paper's transactions hold 10 operations each. *)
let ops_per_txn = 10

(* The table the paper's "% of updates on the source" sends the other
   updates to: 5 000 rows, as in lib/sim. *)
let dummy_rows = 5_000

(* Eager FOJ R(a, b, c) ⋈ S(c, d) -> T beside the dummy table D;
   write-heavy, uniform keys. *)
let foj_eager_write sizes rng =
  let r_schema =
    Schema.make ~key:[ "a" ] [ int_col ~nullable:false "a"; text_col "b"; int_col "c" ]
  in
  let s_schema =
    Schema.make ~key:[ "c" ] [ int_col ~nullable:false "c"; text_col "d" ]
  in
  let d_schema =
    Schema.make ~key:[ "k" ] [ int_col ~nullable:false "k"; text_col "v" ]
  in
  let r = mtable "R" r_schema ~tracked:(fun _ -> true) in
  let s = mtable "S" s_schema ~tracked:(fun _ -> false) in
  let d = mtable "D" d_schema ~tracked:(fun _ -> false) in
  (* Chosen: a tenth of the join values have no S row, so T holds the
     null-padded R-only and S-only rows of the paper's Fig. 1 and the
     propagation rules for unmatched rows run. *)
  let join_value () = 1 + Random.State.int rng (sizes.s_rows + (sizes.s_rows / 10)) in
  let seq = ref 0 in
  let fresh p = incr seq; Value.Text (p ^ string_of_int !seq) in
  let b0 = draft () in
  for k = 1 to sizes.rows do
    m_insert b0 r k (Row.make [ Value.Int k; fresh "r"; Value.Int (join_value ()) ])
  done;
  for k = 1 to sizes.s_rows do
    m_insert b0 s k (Row.make [ Value.Int k; fresh "s" ])
  done;
  for k = 1 to dummy_rows do
    m_insert b0 d k (Row.make [ Value.Int k; fresh "w" ])
  done;
  let next_r = ref sizes.rows in
  (* One operation on the sources. lib/sim sends 75 % of them to R and
     25 % to S. Chosen: of the R operations, 60 % update b, 20 % re-key
     the join column, 10 % insert and 10 % delete, so the FOJ's rules
     for join-column changes, inserts and deletes and T's index on the
     join column are loaded; R keeps its size. *)
  let source_write b =
    if Random.State.int rng 4 = 3 then
      m_update b s (1 + Random.State.int rng sizes.s_rows) [ (1, fresh "v") ]
    else
      match Random.State.int rng 10 with
      | x when x < 6 -> m_update b r (Keyset.random r.live rng) [ (1, fresh "u") ]
      | x when x < 8 ->
        m_update b r (Keyset.random r.live rng) [ (2, Value.Int (join_value ())) ]
      | 8 ->
        incr next_r;
        m_insert b r !next_r
          (Row.make [ Value.Int !next_r; fresh "r"; Value.Int (join_value ()) ])
      | _ -> m_delete b r (Keyset.random r.live rng)
  in
  let next () =
    let b = draft () in
    (* Chosen: a tenth of the transactions only read (R or S, 75/25 as
       above), half of them through a snapshot and half with locks, so
       version-chain visibility and locked reads run beside the
       writes. *)
    if Random.State.int rng 10 = 0 then begin
      for _ = 1 to ops_per_txn do
        if Random.State.int rng 4 = 3 then m_read b s (1 + Random.State.int rng sizes.s_rows)
        else m_read b r (Keyset.random r.live rng)
      done;
      finish b (if Random.State.bool rng then `Snapshot else `Read_committed)
    end
    else begin
      (* 80 % of the updates go to the sources: the paper's heavier mix
         (Fig. 4(c)); the rest update D. *)
      for _ = 1 to ops_per_txn do
        if Random.State.int rng 10 < 8 then source_write b
        else m_update b d (1 + Random.State.int rng dummy_rows) [ (1, fresh "w") ]
      done;
      finish b `Read_committed
    end
  in
  let spec =
    { Spec.r_table = "R"; s_table = "S"; t_table = "T"; join_r = [ "c" ];
      join_s = [ "c" ]; t_join = [ "c" ]; r_carry = [ "a"; "b" ];
      s_carry = [ "d" ]; many_to_many = false }
  in
  let oracle v =
    [ ( "T",
        Relalg.full_outer_join
          { Relalg.r_join = [ "c" ]; s_join = [ "c" ]; out_join = [ "c" ];
            r_cols = [ "a"; "b" ]; s_cols = [ "d" ]; out_key = [ "a" ] }
          (relation v "R") (relation v "S") ) ]
  in
  { w_name = "foj-eager-write"; sizes; tables = [ r; s; d ]; spec = Spec.Foj spec;
    options =
      { Options.default with
        Options.strategy = Options.Eager; population = Options.Fuzzy;
        sync = Options.Nonblocking_abort; drop_sources = false };
    next; oracle; check_records = (fun _ _ -> ()); share = 0.35;
    slice_s = 0.002 }

(* Zipf(theta) over ranks 1..n by inverse CDF; ranks map to keys through
   a seeded permutation so the hot keys are spread over the table. *)
let zipf rng ~n ~theta =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) theta);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  let perm = Array.init n (fun i -> i + 1) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  fun () ->
    let u = Random.State.float rng total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    perm.(!lo)

(* YCSB's Zipfian request distribution constant. *)
let zipf_theta = 0.99

(* Lazy vertical split T(id, name, zip, city) -> R(id, name, zip),
   S(zip, city), with the consistency checker on; read-heavy, Zipfian. *)
let split_lazy_read sizes rng =
  let t_schema =
    Schema.make ~key:[ "id" ]
      [ int_col ~nullable:false "id"; text_col "name"; int_col "zip"; text_col "city" ]
  in
  (* Only rows the workload inserted are ever deleted, so a Zipf draw
     over the initial ids always finds its row. *)
  let t = mtable "T" t_schema ~tracked:(fun k -> k > sizes.rows) in
  let city z = Value.Text ("city" ^ string_of_int z) in
  let zip () = 1 + Random.State.int rng sizes.s_rows in
  let seq = ref 0 in
  let fresh p = incr seq; Value.Text (p ^ string_of_int !seq) in
  let b0 = draft () in
  for k = 1 to sizes.rows do
    let z = zip () in
    m_insert b0 t k (Row.make [ Value.Int k; fresh "n"; Value.Int z; city z ])
  done;
  let hot = zipf rng ~n:sizes.rows ~theta:zipf_theta in
  let next_id = ref sizes.rows in
  (* One write. lib/sim's split updates: 80 % change the name, 20 % move
     the row to another zip, which changes the split key and keeps
     zip -> city. Chosen: a tenth of the writes insert a row and a tenth
     delete one, so the split's insert and delete rules and the S
     counters' decrements are loaded. *)
  let write b =
    match Random.State.int rng 10 with
    | 0 ->
      incr next_id;
      let z = zip () in
      m_insert b t !next_id (Row.make [ Value.Int !next_id; fresh "n"; Value.Int z; city z ])
    | 1 when t.live.Keyset.n > 0 -> m_delete b t (Keyset.random t.live rng)
    | _ ->
      if Random.State.int rng 10 < 8 then m_update b t (hot ()) [ (1, fresh "m") ]
      else
        let z = zip () in
        m_update b t (hot ()) [ (2, Value.Int z); (3, city z) ]
  in
  (* YCSB workload B: 95 % reads, 5 % writes. Chosen: two transactions
     in three read through a snapshot, the third takes locks and makes
     15 % of its operations writes. With an even split the median
     latency fell between the two kinds' latencies and moved by a
     quarter from seed to seed. *)
  let next () =
    let b = draft () in
    if Random.State.int rng 3 < 2 then begin
      for _ = 1 to ops_per_txn do m_read b t (hot ()) done;
      finish b `Snapshot
    end
    else begin
      for _ = 1 to ops_per_txn do
        if Random.State.int rng 20 < 3 then write b else m_read b t (hot ())
      done;
      finish b `Read_committed
    end
  in
  let split_spec =
    { Relalg.r_cols' = [ "id"; "name"; "zip" ]; s_cols' = [ "zip"; "city" ];
      r_key = [ "id" ]; s_key = [ "zip" ] }
  in
  let oracle v =
    let r, s = Relalg.split split_spec (relation v "T") in
    [ ("R", r); ("S", s) ]
  in
  let check_records db v =
    let mult = Relalg.split_multiplicity split_spec (relation v "T") in
    let expected = Row.Key.Tbl.create 1024 in
    List.iter (fun (k, n) -> Row.Key.Tbl.replace expected k n) mult;
    Table.iter (Db.table db "S") (fun key record ->
        let want = Option.value ~default:0 (Row.Key.Tbl.find_opt expected key) in
        if record.Record.counter <> want then
          diverged "split S record %s: counter %d, multiplicity %d"
            (Row.Key.to_string key) record.Record.counter want;
        if record.Record.flag = Record.Unknown then
          diverged "split S record %s: U flag left at Done" (Row.Key.to_string key))
  in
  { w_name = "split-lazy-read"; sizes; tables = [ t ];
    spec =
      Spec.Split
        { Spec.t_table' = "T"; r_table' = "R"; s_table' = "S";
          r_cols = [ "id"; "name"; "zip" ]; s_cols = [ "zip"; "city" ];
          split_key = [ "zip" ]; assume_consistent = false };
    options =
      { Options.default with
        Options.strategy = Options.Lazy; sync = Options.Nonblocking_abort;
        drop_sources = false };
    next; oracle; check_records; share = 0.25; slice_s = 0.002 }

let workloads = [ "foj-eager-write"; "split-lazy-read" ]

(* The paper's sizes: 50 000 rows in R and 20 000 in S for the FOJ,
   50 000 rows in T for the split; lib/sim's split source has 997
   distinct split-key values. *)
let full_sizes = function
  | "foj-eager-write" ->
    { rows = 50_000; s_rows = 20_000; warmup = 1_000; control = 1_000 }
  | _ -> { rows = 50_000; s_rows = 997; warmup = 2_000; control = 4_000 }

let tiny_sizes = { rows = 2_000; s_rows = 400; warmup = 50; control = 40 }

let make_workload name ~tiny ~seed ~share =
  let sizes = if tiny then tiny_sizes else full_sizes name in
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  let w =
    match name with
    | "foj-eager-write" -> foj_eager_write sizes rng
    | "split-lazy-read" -> split_lazy_read sizes rng
    | other -> fail "unknown workload %s (one of: %s)" other (String.concat ", " workloads)
  in
  (* On tiny tables a transaction is cheap next to propagating its log
     records, so a quarter of wall time would never let the job catch
     up. *)
  match share with
  | Some share -> { w with share }
  | None -> if tiny then { w with share = 0.5 } else w

(* {1 Files} *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let copy_file src dst =
  let ic = open_in_bin src in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

let file_size path = (Unix.stat path).Unix.st_size

let ok_p what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Nbsc_error.to_string e)

(* {1 Self-test tampering}

   Each fault is injected once, after the engine did its work and before
   the checks see it; the run must then exit non-zero. *)

type tamper = No_tamper | Target_row | Drop_commit | Stale_read

let tamper_of_string = function
  | "none" -> No_tamper
  | "target-row" -> Target_row
  | "drop-commit" -> Drop_commit
  | "stale-read" -> Stale_read
  | s -> fail "unknown --tamper %s" s

(* Overwrite one text column of one target record behind the engine's
   back. *)
let alter_target_row db table =
  let tbl = Db.table db table in
  let schema = Table.schema tbl in
  let keys = Schema.key_positions schema in
  let col =
    let rec find i =
      if i >= Schema.arity schema then fail "no text column in %s" table
      else if (not (List.mem i keys))
           && (List.nth (Schema.columns schema) i).Schema.col_ty = Value.TText
      then i
      else find (i + 1)
    in
    find 0
  in
  let victim = ref None in
  Table.iter tbl (fun key _ -> if !victim = None then victim := Some key);
  match !victim with
  | None -> fail "empty target %s" table
  | Some key ->
    ignore
      (Table.update tbl ~lsn:(Log.head (Db.log db)) ~key
         [ (col, Value.Text "tampered") ])

(* Remove the last flushed commit of a writing transaction from the
   crash image's WAL file. Its line becomes a watermark record, which
   replay ignores, so the LSNs stay contiguous and recovery rolls the
   transaction back as a loser. *)
let drop_last_commit wal =
  let ic = open_in_bin wal in
  let rec lines acc = match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let all = Array.of_list (lines []) in
  close_in ic;
  let victim = ref None and writers = Hashtbl.create 1024 in
  Array.iteri
    (fun i line ->
       if i > 0 then
         match Disk_format.unframe ~path:wal ~line:(i + 1) line with
         | Ok payload ->
           let r = Log_record.decode payload in
           (match r.Log_record.body with
            | Log_record.Op _ -> Hashtbl.replace writers r.Log_record.txn ()
            | Log_record.Commit when Hashtbl.mem writers r.Log_record.txn ->
              victim := Some (i, r)
            | _ -> ())
         | Error _ -> ())
    all;
  match !victim with
  | None -> fail "no commit record in %s" wal
  | Some (i, r) ->
    all.(i) <-
      Disk_format.frame
        (Log_record.encode
           { r with Log_record.body = Log_record.Watermark { job = "self-test"; high = false } });
    let oc = open_out_bin wal in
    Array.iter (fun l -> output_string oc l; output_char oc '\n') all;
    close_out oc

(* {1 The client} *)

type phase_stats = {
  lat : Samples.t;            (** seconds, every committed transaction *)
  mutable committed : int;
  mutable attempted : int;
  mutable failed : int;
  mutable t_begin : float;
  mutable t_end : float;
  traced_lat : Samples.t;     (** traced transactions only *)
  untraced_lat : Samples.t;
}

let phase_stats () =
  { lat = Samples.create (); committed = 0; attempted = 0; failed = 0;
    t_begin = 0.; t_end = 0.; traced_lat = Samples.create ();
    untraced_lat = Samples.create () }

type env = {
  db : Db.t;
  mgr : Manager.t;
  w : workload;
  tr : Trace.t option;
  mutable seq : int;            (** transactions sent so far *)
  mutable bad_reads : int;
  mutable first_bad_read : string;
  mutable refusals : int;
  mutable change : Schema_change.handle option;
  mutable in_change : bool;
  touched : (string * int, unit) Hashtbl.t;  (** records touched during the change *)
  first_touch : Samples.t;      (** latency of first-touch operations, s *)
  mutable first_touch_demand : int;  (** ... during which demand migrations rose *)
  mutable live_peak : float;    (** storage.versions_live, sampled *)
  mutable wal_peak : float;     (** wal.records, sampled *)
  mutable last_written : (string * int) option;
  mutable stale : Manager.txn_id option;  (** stale-read self-test *)
  mutable pending : txn option;  (** generated, in the model, not committed *)
}

let key1 k = [| Value.Int k |]

let demand env =
  match env.change with
  | Some h -> Transform.demand_migrations (Schema_change.transform h)
  | None -> 0

let reg_value snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Counter_v n) -> float_of_int n
  | Some (Obs.Gauge_v f) -> f
  | Some (Obs.Histogram_v { h_count; _ }) -> float_of_int h_count
  | None -> fail "registry has no instrument %s" name

let sample_registry env =
  let snap = Obs.Registry.snapshot (Db.obs env.db) in
  env.live_peak <- Float.max env.live_peak (reg_value snap "storage.versions_live");
  env.wal_peak <- Float.max env.wal_peak (reg_value snap "wal.records")

let model_row env table key =
  let t = List.find (fun t -> String.equal t.m_name table) env.w.tables in
  Hashtbl.find_opt t.rows key

let check_read env ~table ~key got expect =
  let same =
    match (got, expect) with
    | None, None -> true
    | Some a, Some b -> Row.equal a b
    | _ -> false
  in
  if not same then begin
    env.bad_reads <- env.bad_reads + 1;
    if env.bad_reads = 1 then
      env.first_bad_read <-
        Printf.sprintf "read %s/%d returned %s, the model holds %s" table key
          (match got with Some r -> Row.to_string r | None -> "nothing")
          (match expect with Some r -> Row.to_string r | None -> "nothing")
  end

(* One call into the transaction manager, with a span when traced. *)
let call env ~traced kind ~table ~key f =
  match env.tr with
  | Some tr when traced ->
    let d0 = demand env in
    let t0 = clock () in
    let r = f () in
    let t1 = clock () in
    Trace.record tr kind env.seq t0 t1;
    if env.in_change && not (Hashtbl.mem env.touched (table, key)) then begin
      Hashtbl.replace env.touched (table, key) ();
      Samples.add env.first_touch (t1 -. t0);
      if demand env > d0 then env.first_touch_demand <- env.first_touch_demand + 1
    end;
    r
  | _ -> f ()

let exec_op env ~traced ~txn ~iso op =
  let mgr = env.mgr in
  match op with
  | Read { table; key; expect } ->
    let kind = if iso = `Snapshot then Trace.k_snapshot_read else Trace.k_read in
    let reader =
      match env.stale with
      | Some stale when iso = `Snapshot && env.last_written <> None -> Some stale
      | _ -> None
    in
    (match reader with
     | Some stale ->
       (* Self-test: read the last written record through a snapshot
          taken before the control phase. *)
       env.stale <- None;
       let table, key = Option.get env.last_written in
       let got = Manager.read mgr ~txn:stale ~table ~key:(key1 key) in
       ignore (Manager.commit mgr stale);
       (match got with
        | Ok got -> check_read env ~table ~key got (model_row env table key); Ok ()
        | Error e -> Error e)
     | None ->
       (match
          call env ~traced kind ~table ~key (fun () ->
              Manager.read mgr ~txn ~table ~key:(key1 key))
        with
        | Ok got -> check_read env ~table ~key got expect; Ok ()
        | Error e -> Error e))
  | Update { table; key; changes } ->
    env.last_written <- Some (table, key);
    call env ~traced Trace.k_update ~table ~key (fun () ->
        Manager.update mgr ~txn ~table ~key:(key1 key) changes)
  | Insert { table; row } ->
    let key = int_key row in
    call env ~traced Trace.k_insert ~table ~key (fun () ->
        Manager.insert mgr ~txn ~table row)
  | Delete { table; key } ->
    call env ~traced Trace.k_delete ~table ~key (fun () ->
        Manager.delete mgr ~txn ~table ~key:(key1 key))

let timed_plain env ~traced kind f =
  match env.tr with
  | Some tr when traced ->
    let t0 = clock () in
    let r = f () in
    Trace.record tr kind env.seq t0 (clock ());
    r
  | _ -> f ()

(* Send one transaction; [between] runs the job's next slice after a
   [Frozen]/[Latched] refusal and reports whether the change is still
   running. A refused transaction still waiting when the change is
   [Done] never commits: it is addressed to the old tables, and it
   counts as failed. *)
let send env ~traced ~between tx =
  let mgr = env.mgr in
  let rec attempt tries =
    let txn = timed_plain env ~traced Trace.k_begin (fun () ->
        Manager.begin_txn ~isolation:tx.iso mgr) in
    let rec ops = function
      | [] -> Ok ()
      | op :: rest ->
        (match exec_op env ~traced ~txn ~iso:tx.iso op with
         | Ok () -> ops rest
         | Error e -> Error e)
    in
    let result =
      match ops tx.ops with
      | Ok () ->
        (match timed_plain env ~traced Trace.k_commit (fun () -> Manager.commit mgr txn) with
         | Ok () -> Ok ()
         | Error e ->
           ignore (Manager.abort mgr txn);
           Error e)
      | Error e ->
        ignore (timed_plain env ~traced Trace.k_abort (fun () -> Manager.abort mgr txn));
        Error e
    in
    match result with
    | Ok () -> `Committed
    | Error (`Frozen _ | `Latched _) when tries < 10_000 ->
      env.refusals <- env.refusals + 1;
      if between () then attempt (tries + 1)
      else begin
        note "transaction refused until the change was Done";
        `Failed
      end
    | Error e ->
      note "transaction failed: %s" (Format.asprintf "%a" Manager.pp_error e);
      `Failed
  in
  attempt 0

let run_txn env stats ~traced ~between ~ready tx =
  stats.attempted <- stats.attempted + 1;
  let outcome = send env ~traced ~between tx in
  let t1 = clock () in
  env.seq <- env.seq + 1;
  (match outcome with
   | `Committed ->
     stats.committed <- stats.committed + 1;
     let l = t1 -. ready in
     Samples.add stats.lat l;
     (match env.tr with
      | Some tr when traced ->
        Trace.record tr Trace.k_txn env.seq ready t1;
        Samples.add stats.traced_lat l
      | _ -> Samples.add stats.untraced_lat l)
   | `Failed ->
     stats.failed <- stats.failed + 1;
     discard tx);
  if env.tr <> None && env.seq mod 64 = 0 then sample_registry env

(* Closed loop with no change running. With [halves], a traced run
   traces a pseudo-random half of the transactions, so the two halves
   measure the tracing overhead side by side. Every other transaction
   would not do: the group-commit window is even, so every flush, and
   the version-GC walk that rides on it, would land in one half. *)
let run_plain ?(halves = false) env stats n =
  let pick = Random.State.make [| 0x5eed |] in
  stats.t_begin <- clock ();
  for _ = 1 to n do
    let tx = env.w.next () in
    let ready = clock () in
    run_txn env stats ~traced:(halves && Random.State.bool pick) ~between:(fun () -> true)
      ~ready tx
  done;
  Manager.flush_commits env.mgr;
  stats.t_end <- clock ()

(* {1 The change} *)

type job_stats = {
  mutable quanta : int;
  mutable busy : float;          (** seconds in job slices, incl. [start] *)
  mutable sync_s : float;
  mutable quantum_max : float;
  mutable lag_peak : int;
  mutable pop_busy : float;
  mutable pop_rows : int;
  mutable prop_records : int;
  mutable check_quanta : int;
  mutable tail_busy : float;     (** after population, up to Done *)
  mutable switch_s : float;
  mutable demand_total : int;
}

let job_stats () =
  { quanta = 0; busy = 0.; sync_s = 0.; quantum_max = 0.; lag_peak = 0;
    pop_busy = 0.; pop_rows = 0; prop_records = 0;
    check_quanta = 0; tail_busy = 0.; switch_s = 0.; demand_total = 0 }

(* A run must end within three minutes. *)
let change_limit_s = 90.

type image = { image_dir : string; image_view : view }

let take_image env ~dir ~image_dir ~tamper =
  excluding (fun () ->
      Manager.flush_commits env.mgr;
      rm_rf image_dir;
      Unix.mkdir image_dir 0o755;
      copy_file (Disk_format.snapshot_path dir) (Disk_format.snapshot_path image_dir);
      copy_file (Disk_format.wal_path dir) (Disk_format.wal_path image_dir);
      if tamper = Drop_commit then drop_last_commit (Disk_format.wal_path image_dir);
      (* The committed writes only: a pending transaction is taken out
         of the model for the copy. *)
      let image_view =
        match env.pending with
        | None -> view_of env.w.tables
        | Some tx ->
          discard tx;
          let v = view_of env.w.tables in
          redo env.w.tables tx;
          v
      in
      { image_dir; image_view })

let is_populating tf =
  match Transform.phase tf with Transform.Populating -> true | _ -> false

let run_change env stats js ~dir ~image_dir ~tamper =
  let w = env.w in
  let traced = env.tr <> None in
  let image = ref None in
  let t_start = clock () in
  stats.t_begin <- t_start;
  let h =
    timed_plain env ~traced Trace.k_start (fun () ->
        match Schema_change.start env.db ~options:w.options w.spec with
        | Ok h -> h
        | Error e -> fail "start: %s" (Nbsc_error.to_string e))
  in
  let tf = Schema_change.transform h in
  env.change <- Some h;
  env.in_change <- true;
  js.busy <- clock () -. t_start;
  let finished = ref false in
  let lag_name = "transform." ^ Transform.job_name tf ^ ".lag" in
  let at_pop_end = ref None in
  let quantum () =
    let phase0 = Transform.phase tf in
    let populating = is_populating tf in
    let routed = Transform.routing tf in
    let q0 = clock () in
    let r = Schema_change.step h in
    let q1 = clock () in
    let d = q1 -. q0 in
    js.quanta <- js.quanta + 1;
    if d > js.quantum_max then js.quantum_max <- d;
    (* [Transform.progress] walks the split's records for its U-flag
       count, so the traced run reads the lag from the registry probe
       and takes progress only where population ends. *)
    (match env.tr with
     | Some tr ->
       Trace.record tr Trace.k_quantum js.quanta q0 q1;
       (match Obs.Registry.find (Db.obs env.db) lag_name with
        | Some (Obs.Gauge_v l) -> js.lag_peak <- max js.lag_peak (int_of_float l)
        | _ -> ());
       if populating then js.pop_busy <- js.pop_busy +. d
       else begin
         js.tail_busy <- js.tail_busy +. d;
         if phase0 = Transform.Checking then js.check_quanta <- js.check_quanta + 1
       end
     | None -> ());
    if routed = `Sources && Transform.routing tf = `Targets then js.switch_s <- d;
    if populating && not (is_populating tf) then begin
      if traced then at_pop_end := Some (excluding (fun () -> Transform.progress tf));
      if !image = None then image := Some (take_image env ~dir ~image_dir ~tamper)
    end;
    match r with
    | `Running -> ()
    | `Done ->
      finished := true;
      js.sync_s <- clock () -. t_start
    | `Failed e -> fail "change failed: %s" (Nbsc_error.to_string e)
  in
  (* One slice: quanta until the slice is [slice_s] long. Once the
     routing has flipped, the switch-over finishes in the same slice. *)
  let slice () =
    let s0 = clock () in
    let rec go () =
      quantum ();
      if (not !finished)
      && (clock () -. s0 < w.slice_s || Transform.routing tf = `Targets)
      then go ()
    in
    go ();
    js.busy <- js.busy +. (clock () -. s0)
  in
  let catch_up () =
    while (not !finished) && js.busy < w.share *. (clock () -. t_start) do
      slice ()
    done
  in
  let between () = slice (); not !finished in
  while not !finished do
    if clock () -. t_start > change_limit_s then
      fail "the change is not Done after %.0f s: the job cannot keep up at %.0f%% of wall time"
        change_limit_s (100. *. w.share);
    (* The transaction is ready before the job's due slices run, so they
       count against it. *)
    let tx = w.next () in
    env.pending <- Some tx;
    let ready = clock () in
    catch_up ();
    if !finished then discard tx else run_txn env stats ~traced ~between ~ready tx;
    env.pending <- None
  done;
  Manager.flush_commits env.mgr;
  stats.t_end <- clock ();
  js.demand_total <- Transform.demand_migrations tf;
  (match !at_pop_end with
   | Some p ->
     let fin = Transform.progress tf in
     js.pop_rows <- p.Transform.produced;
     js.prop_records <- fin.Transform.propagated - p.Transform.propagated
   | None -> ());
  env.in_change <- false;
  match !image with
  | Some i -> i
  | None -> fail "the change finished without leaving its population phase"

(* {1 Checks} *)

let check_equal ~what expected got =
  if not (Relalg.equal_as_sets expected got) then begin
    let only_e, only_g = Relalg.diff_as_sets expected got in
    let show = function
      | r :: _ -> Row.to_string r
      | [] -> "-"
    in
    diverged "%s: %d expected rows missing (e.g. %s), %d unexpected (e.g. %s)"
      what (List.length only_e) (show only_e) (List.length only_g) (show only_g)
  end

let check_db ~what w db (v : view) =
  List.iter
    (fun (name, _, _) ->
       check_equal ~what:(what ^ " source " ^ name) (relation v name) (Db.snapshot db name))
    v;
  List.iter
    (fun (name, rel) -> check_equal ~what:(what ^ " target " ^ name) rel (Db.snapshot db name))
    (w.oracle v);
  w.check_records db v

(* {1 Set-up} *)

let setup_once w ~dir ~tr =
  rm_rf dir;
  let t0 = clock () in
  let p = ok_p "create" (Persist.create_dir ~dir) in
  let db = Persist.db p in
  List.iter
    (fun t ->
       ignore (Db.create_table db ~name:t.m_name t.m_schema);
       let rows =
         List.sort
           (fun a b -> Value.compare (Row.get a 0) (Row.get b 0))
           (rows_of_table t)
       in
       let rec load = function
         | [] -> ()
         | rows ->
           let rec take n acc = function
             | r :: rest when n > 0 -> take (n - 1) (r :: acc) rest
             | rest -> (List.rev acc, rest)
           in
           let chunk, rest = take 2048 [] rows in
           (match Db.load db ~table:t.m_name chunk with
            | Ok () -> ()
            | Error e -> fail "load %s: %s" t.m_name (Format.asprintf "%a" Manager.pp_error e));
           load rest
       in
       load rows)
    w.tables;
  let c0 = clock () in
  ok_p "checkpoint" (Persist.checkpoint p);
  let t1 = clock () in
  (match tr with
   | Some tr ->
     Trace.record tr Trace.k_setup 0 t0 c0;
     Trace.record tr Trace.k_checkpoint 0 c0 t1
   | None -> ());
  (p, t1 -. t0, t1 -. c0)

(* {1 Primitive cost ledger (traced run)}

   Bechamel ns/op for the primitives every transaction pays, each
   multiplied by how often the run's transactions called it. *)

let primitive_costs () =
  let open Bechamel in
  let open Toolkit in
  let schema =
    Schema.make ~key:[ "a" ] [ int_col ~nullable:false "a"; text_col "b"; int_col "c" ]
  in
  let table = Table.create ~name:"ledger" ~indexes:[ ("by_c", [ "c" ]) ] schema in
  for i = 0 to 9_999 do
    ignore
      (Table.insert table ~lsn:(Lsn.of_int (i + 1))
         (Row.make [ Value.Int i; Value.Text ("b" ^ string_of_int i); Value.Int (i mod 97) ]))
  done;
  let log = Log.create () in
  let locks = Nbsc_lock.Lock_table.create () in
  let n = ref 0 in
  let row = Row.make [ Value.Int 1; Value.Text "u123456"; Value.Int 42 ] in
  let record =
    { Log_record.lsn = Lsn.of_int 7; txn = 3; prev_lsn = Lsn.of_int 6;
      body =
        Log_record.Op
          (Log_record.Update
             { table = "R"; key = key1 1; changes = [ (1, Value.Text "u123456") ];
               before = [ (1, Value.Text "r654321") ] }) }
  in
  let scratch = Buffer.create 256 and out = Buffer.create 256 in
  let tests =
    [ Test.make ~name:"lock"
        (Staged.stage (fun () ->
             incr n;
             let key = key1 (!n land 1023) in
             ignore
               (Nbsc_lock.Lock_table.acquire locks ~owner:1 ~table:"t" ~key
                  { Nbsc_lock.Compat.mode = Nbsc_lock.Compat.X;
                    provenance = Nbsc_lock.Compat.Native });
             Nbsc_lock.Lock_table.release_owner locks ~owner:1));
      Test.make ~name:"log_append"
        (Staged.stage (fun () ->
             ignore (Log.append log ~txn:1 ~prev_lsn:Lsn.zero record.Log_record.body);
             if Log.length log > 65_536 then Log.truncate_to log (Log.head log)));
      Test.make ~name:"encode"
        (Staged.stage (fun () ->
             Buffer.clear out;
             Log_record.encode_into ~scratch out record));
      Test.make ~name:"update"
        (Staged.stage (fun () ->
             incr n;
             ignore
               (Table.update table ~lsn:(Lsn.of_int (100_000 + !n)) ~txn:1
                  ~key:(key1 (!n mod 10_000)) [ (1, Row.get row 1) ])));
      Test.make ~name:"find"
        (Staged.stage (fun () ->
             incr n;
             ignore (Table.find table (key1 (!n mod 10_000)))));
      Test.make ~name:"index"
        (Staged.stage (fun () ->
             incr n;
             ignore (Table.index_lookup table ~index:"by_c" (key1 (!n mod 97))))) ]
  in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None ~stabilize:false
      ~start:64 ~sampling:(`Geometric 1.02) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (Test.make_grouped ~name:"p" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  List.map
    (fun name ->
       let est =
         match Hashtbl.find_opt results ("p/" ^ name) with
         | Some e -> (match Analyze.OLS.estimates e with Some [ x ] -> x | _ -> nan)
         | None -> nan
       in
       (name, est))
    [ "lock"; "log_append"; "encode"; "update"; "find"; "index" ]

(* {1 Output} *)

let print_result ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
            if not (Float.is_finite v) then fail "metric %s is not a finite number" name;
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
         metrics)
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed m

(* {1 A run} *)

(* Commits per durability barrier, the same in every run and workload. *)
let group_commit_window = 16

type round_result = {
  rr_attempted : int;
  rr_failed : int;
  rr_setup_s : float;
  rr_control : phase_stats;
  rr_change : phase_stats;
  rr_sync_s : float;
  rr_recover_s : float;
  rr_wal_bytes : float;   (** WAL file bytes written during control *)
  rr_heap_mb : float;     (** peak major heap so far in the process *)
}

(* One round: set-up, warm-up, control, change, crash recovery and the
   checks. Returns the round's raw figures and, when traced, the
   per-layer metrics. *)
let run_round w ~root ~tr ~costs ~tamper ~control_txns =
  let dir = Filename.concat root "db" and image_dir = Filename.concat root "image" in
  (* 1. Set-up. *)
  Gc.compact ();
  let p, setup_s, checkpoint_s = setup_once w ~dir ~tr in
  let db = Persist.db p in
  let mgr = Db.manager db in
  let obs = Db.obs db in
  Manager.set_group_commit mgr group_commit_window;
  let env =
    { db; mgr; w; tr; seq = 0; bad_reads = 0; first_bad_read = ""; refusals = 0;
      change = None; in_change = false; touched = Hashtbl.create 65536;
      first_touch = Samples.create (); first_touch_demand = 0; live_peak = 0.;
      wal_peak = 0.; last_written = None; stale = None; pending = None }
  in
  (* 2. Warm-up. *)
  let warm = phase_stats () in
  run_plain env warm w.sizes.warmup;
  (* 3. Control. *)
  if tamper = Stale_read then begin
    env.stale <- Some (Manager.begin_txn ~isolation:`Snapshot mgr);
    env.last_written <- None
  end;
  let control = phase_stats () in
  let wal_path = Disk_format.wal_path dir in
  let wal0 = file_size wal_path in
  let snap0 = Obs.Registry.snapshot obs in
  let gc0 = Gc.quick_stat () in
  run_plain ~halves:(tr <> None) env control control_txns;
  let gc1 = Gc.quick_stat () in
  let snap1 = Obs.Registry.snapshot obs in
  let wal1 = file_size wal_path in
  let delta name = reg_value snap1 name -. reg_value snap0 name in
  let gc_ms, reclaimed_direct =
    match tr with
    | Some tr ->
      let t0 = clock () in
      let n = Manager.gc_versions mgr in
      let t1 = clock () in
      Trace.record tr Trace.k_gc 0 t0 t1;
      ((t1 -. t0) *. 1e3, n)
    | None -> (nan, 0)
  in
  if tr <> None then sample_registry env;
  (* The ledger explains the control transactions: their span counts,
     and the sources' indexes as control saw them. *)
  let control_counts, control_indexed =
    match tr with
    | Some tr ->
      let count, _, _ = Trace.totals tr in
      (count, List.exists (fun t -> Table.index_definitions (Db.table db t.m_name) <> []) w.tables)
    | None -> ([||], false)
  in
  (* 4. The change, on its time share. *)
  let change = phase_stats () in
  let js = job_stats () in
  let image = run_change env change js ~dir ~image_dir ~tamper in
  if tamper = Target_row then
    alter_target_row db (List.hd (List.map fst (w.oracle image.image_view)));
  if env.bad_reads > 0 then diverged "%d reads diverged; first: %s" env.bad_reads env.first_bad_read;
  check_db ~what:"after the change" w db (view_of w.tables);
  let snap_end = Obs.Registry.snapshot obs in
  Persist.close p;
  (* 5. Recovery from the crash image, then resume to Done. *)
  let r0 = clock () in
  let p2 = ok_p "open crash image" (Persist.open_dir ~dir:image.image_dir) in
  let r1 = clock () in
  let handles =
    match Schema_change.resume ~options:w.options p2 with
    | Ok hs -> hs
    | Error e -> fail "resume: %s" (Nbsc_error.to_string e)
  in
  if handles = [] then fail "the crash image holds no schema change to resume";
  let resume_quanta = ref 0 in
  List.iter
    (fun h ->
       let rec go () =
         incr resume_quanta;
         match Schema_change.step h with
         | `Running -> go ()
         | `Done -> ()
         | `Failed e -> fail "resumed change failed: %s" (Nbsc_error.to_string e)
       in
       go ())
    handles;
  let r2 = clock () in
  (match tr with
   | Some tr ->
     Trace.record tr Trace.k_open 0 r0 r1;
     Trace.record tr Trace.k_resume 0 r1 r2
   | None -> ());
  let replayed =
    match Persist.last_recovery p2 with
    | Some r -> r.Recovery.redo_applied
    | None -> 0
  in
  check_db ~what:"after crash recovery" w (Persist.db p2) image.image_view;
  Persist.close p2;
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let attempted = warm.attempted + control.attempted + change.attempted in
  let failed = warm.failed + control.failed + change.failed in
  let us x = x *. 1e6 in
  let commits = float_of_int control.committed in
  let result =
    { rr_attempted = attempted; rr_failed = failed; rr_setup_s = setup_s;
      rr_control = control; rr_change = change; rr_sync_s = js.sync_s;
      rr_recover_s = r2 -. r0; rr_wal_bytes = float_of_int (wal1 - wal0);
      rr_heap_mb = heap_mb }
  in
  match tr with
  | None -> (result, [])
  | Some tr ->
    let count, busy, over = Trace.totals tr in
    let mean_us k = if count.(k) = 0 then 0. else us (busy.(k) /. float_of_int count.(k)) in
    let txn_calls = [ Trace.k_read; Trace.k_snapshot_read; Trace.k_update; Trace.k_insert;
                      Trace.k_delete; Trace.k_commit; Trace.k_abort; Trace.k_begin ] in
    let over_1ms = List.fold_left (fun a k -> a + over.(k)) 0 txn_calls in
    let per_txn k =
      float_of_int control_counts.(k) /. float_of_int (max 1 control_counts.(Trace.k_txn))
    in
    let cost name = List.assoc name costs /. 1e3 in
    let records_per_txn = delta "wal.records" /. commits in
    (* Writes that maintain a secondary index, one lookup-sized probe
       each. *)
    let indexed_writes =
      if control_indexed
      then per_txn Trace.k_update +. per_txn Trace.k_insert +. per_txn Trace.k_delete
      else 0.
    in
    let locked = per_txn Trace.k_read +. per_txn Trace.k_update
                 +. per_txn Trace.k_insert +. per_txn Trace.k_delete in
    let explained =
      (locked *. cost "lock")
      +. (records_per_txn *. (cost "log_append" +. cost "encode"))
      +. ((per_txn Trace.k_update +. per_txn Trace.k_delete) *. cost "update")
      +. ((per_txn Trace.k_read +. per_txn Trace.k_snapshot_read) *. cost "find")
      +. (indexed_writes *. cost "index")
    in
    (* Medians: a version-GC stall lands on whichever half its
       transaction falls in, and would swamp a difference of means. *)
    let untraced_us = us (Samples.quantile control.untraced_lat 0.5) in
    List.iter (fun (n, c) -> note "ledger %s %.1f ns/op" n c) costs;
    (* The ledger explains the mean cost of a transaction, stalls
       included: the untraced half's mean latency. *)
    let untraced_mean_us = us (Samples.mean control.untraced_lat) in
    let words st = st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words in
    (result,
      [ ("txn.update_us", "us", mean_us Trace.k_update);
        ("txn.insert_us", "us", mean_us Trace.k_insert);
        ("txn.delete_us", "us", mean_us Trace.k_delete);
        ("txn.commit_us", "us", mean_us Trace.k_commit);
        ("txn.ops_per_txn", "count", delta "txn.ops" /. commits);
        ("txn.read_us", "us", mean_us Trace.k_read);
        ("txn.snapshot_read_us", "us", mean_us Trace.k_snapshot_read);
        ("txn.calls_over_1ms", "count", float_of_int over_1ms);
        ("txn.gc_versions_ms", "ms", gc_ms);
        ("storage.versions_live_peak", "count", env.live_peak);
        ("storage.versions_reclaimed", "count",
         reg_value snap_end "storage.versions_reclaimed" -. reg_value snap0 "storage.versions_reclaimed");
        ("core.populate_us_per_row", "us", us js.pop_busy /. float_of_int (max 1 js.pop_rows));
        ("core.propagate_us_per_record", "us", us js.tail_busy /. float_of_int (max 1 js.prop_records));
        ("core.job_busy_s", "s", js.busy);
        ("core.quanta", "count", float_of_int js.quanta);
        ("core.lag_peak", "count", float_of_int js.lag_peak);
        ("core.demand_migrations", "count", float_of_int js.demand_total);
        ("core.demand_op_us", "us", us (Samples.mean env.first_touch));
        ("core.demand_op_share", "ratio",
         float_of_int env.first_touch_demand /. float_of_int (max 1 env.first_touch.Samples.n));
        ("core.quantum_max_us", "us", us js.quantum_max);
        ("core.check_quanta", "count", float_of_int js.check_quanta);
        ("core.tail_s", "s", js.tail_busy);
        ("core.switch_us", "us", us js.switch_s);
        ("txn.refusals", "count", float_of_int env.refusals);
        ("engine.checkpoint_s", "s", checkpoint_s);
        ("engine.open_s", "s", r1 -. r0);
        ("engine.replayed_records", "count", float_of_int replayed);
        ("core.resume_s", "s", r2 -. r1);
        ("core.resume_quanta", "count", float_of_int !resume_quanta);
        ("wal.records_per_txn", "count", records_per_txn);
        ("wal.truncated_records", "count", delta "wal.truncated_total");
        ("wal.live_high_water", "count", env.wal_peak);
        ("engine.flushes_per_txn", "count", delta "engine.commit_batch_size" /. commits);
        ("engine.wal_file_bytes", "bytes", float_of_int wal1);
        ("gc.alloc_words_per_txn", "words", (words gc1 -. words gc0) /. commits);
        ("gc.minor_collections", "count", float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
        ("gc.major_collections", "count", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ("obs.trace_overhead_us_per_txn", "us", us (Samples.quantile control.traced_lat 0.5) -. untraced_us);
        ("ledger.explained_us_per_txn", "us", explained);
        ("ledger.unexplained_us_per_txn", "us", untraced_mean_us -. explained);
        ("txn.gc_versions_reclaimed", "count", float_of_int reclaimed_direct) ])

(* Rounds per untraced run. Each round replays the same seeded inputs on
   a fresh database; transaction figures pool the rounds' samples and
   the single-valued times are the median of the rounds, so a stretch of
   slow host time weighs on one round, not on the run. *)
let rounds = 4

let pooled f results =
  let all = Samples.create () in
  List.iter
    (fun r -> let s = f r in for i = 0 to s.Samples.n - 1 do Samples.add all s.Samples.a.(i) done)
    results;
  all

let end_to_end results =
  let us x = x *. 1e6 in
  let sum f = List.fold_left (fun a r -> a +. f r) 0. results in
  let per_s f =
    sum (fun r -> float_of_int (f r).committed)
    /. sum (fun r -> (f r).t_end -. (f r).t_begin)
  in
  let control = pooled (fun r -> r.rr_control.lat) results in
  let change = pooled (fun r -> r.rr_change.lat) results in
  let med f = median (List.map f results) in
  let control_rate = per_s (fun r -> r.rr_control) in
  let control_p50 = Samples.quantile control 0.5 in
  (* The change's cost to the workload, as the paper gives it: the
     change phase's throughput and median latency relative to the
     control phase's in the same run. The host's speed drifts between
     runs far more than within one, and the ratio cancels it. *)
  [ ("setup_s", "s", med (fun r -> r.rr_setup_s));
    ("control_txn_per_s", "txn/s", control_rate);
    ("control_p50_us", "us", us control_p50);
    ("control_p999_us", "us", us (Samples.quantile control 0.999));
    ("change_throughput_ratio", "ratio", per_s (fun r -> r.rr_change) /. control_rate);
    ("change_p50_ratio", "ratio", Samples.quantile change 0.5 /. control_p50);
    ("sync_s", "s", med (fun r -> r.rr_sync_s));
    ("recover_s", "s", med (fun r -> r.rr_recover_s));
    ("wal_bytes_per_txn", "bytes",
     sum (fun r -> r.rr_wal_bytes) /. sum (fun r -> float_of_int r.rr_control.committed));
    (* The first round's: OCaml 5.1 never returns heap to the system, so
       later rounds start from the earlier rounds' peak. *)
    ("heap_peak_mb", "MB", (List.hd results).rr_heap_mb) ]

let run ~workload ~seed ~seconds ~trace ~tiny ~tamper ~share =
  if not (Sys.file_exists "osc_bench" && Sys.is_directory "osc_bench") then
    fail "run from the repository root (no osc_bench/ here)";
  let work = Filename.concat "osc_bench" "_work" in
  if not (Sys.file_exists work) then Unix.mkdir work 0o755;
  let root = Filename.concat work (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  rm_rf root;
  Unix.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let tr = if trace then Some (Trace.create ()) else None in
  (* Primitive costs first, on a small heap. *)
  let costs = if trace then primitive_costs () else [] in
  let n = if trace || tiny then 1 else rounds in
  let results =
    List.init n (fun _ ->
        let w = make_workload workload ~tiny ~seed ~share in
        let control_txns = max 1 (w.sizes.control * seconds / rounds) in
        let r = run_round w ~root ~tr ~costs ~tamper ~control_txns in
        note "round: %s"
          (String.concat " "
             (List.map (fun (n, _, v) -> Printf.sprintf "%s=%.6g" n v) (end_to_end [ fst r ])));
        r)
  in
  let attempted = List.fold_left (fun a (r, _) -> a + r.rr_attempted) 0 results in
  let failed = List.fold_left (fun a (r, _) -> a + r.rr_failed) 0 results in
  match tr with
  | Some tr ->
    let spans = Filename.concat "osc_bench" "_out" in
    if not (Sys.file_exists spans) then Unix.mkdir spans 0o755;
    Trace.write tr (Filename.concat spans (Printf.sprintf "spans-%s-%d.jsonl" workload seed));
    print_result ~attempted ~failed (snd (List.hd results))
  | None -> print_result ~attempted ~failed (end_to_end (List.map fst results))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  let scale = ref "full" and tamper = ref "none" and share = ref 0. in
  let spec =
    [ ("--workload", Arg.Set_string workload, " one of: " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " scales the control phase");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--scale", Arg.Set_string scale, " full (default) or tiny (self-tests)");
      ("--share", Arg.Set_float share, " the job's share of wall time (default: the workload's)");
      ("--tamper", Arg.Set_string tamper,
       " self-test fault: none, target-row, drop-commit, stale-read") ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) "main.exe --workload W";
  match
    run ~workload:!workload ~seed:!seed ~seconds:(max 1 !seconds) ~trace:(!trace = 1)
      ~tiny:(!scale = "tiny") ~tamper:(tamper_of_string !tamper)
      ~share:(if !share > 0. then Some !share else None)
  with
  | () -> ()
  | exception Divergence m ->
    note "DIVERGENCE: %s" m;
    exit 3
  | exception Failure m ->
    note "error: %s" m;
    exit 2
