(* The headline restart-safety test with a real kill -9: fork a daemon
   process, SIGKILL it while submissions are still queued, then resume
   over the surviving root and check the tenant report is byte-identical
   to an uninterrupted run's.

   This lives in its own executable because OCaml 5 forbids Unix.fork
   once any domain has been spawned: the fork must be the first
   multiprocessing act of the process, before the parent runs its own
   (domain-spawning) daemons for the reference and resume phases. *)

module Core = Wasai_core
module Wasm = Wasai_wasm
module BG = Wasai_benchgen
module Campaign = Wasai_campaign
module Serve = Wasai_serve
open Wasai_eosio

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Unix-domain socket paths are capped around 104 bytes, so anchor
   everything under a short /tmp directory instead of TMPDIR, and remove
   it when the test ends. *)
let with_scratch tag f =
  let dir =
    Printf.sprintf "/tmp/wasai-kill-%d-%s-%d" (Unix.getpid ()) tag
      (int_of_float (Unix.gettimeofday () *. 1000.) mod 1_000_000)
  in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let rounds = 6
let engine = (Core.Engine.make_config ~rounds:(rounds) ())

let sample_contracts ~count =
  List.mapi
    (fun i (s : BG.Corpus.sample) ->
      let name = Printf.sprintf "trgt%c" (Char.chr (Char.code 'a' + i)) in
      ( name,
        Wasm.Encode.encode s.BG.Corpus.smp_module,
        Abi.to_text s.BG.Corpus.smp_abi ))
    (BG.Corpus.coverage_set ~count ())

let client_contracts contracts =
  List.map
    (fun (name, wasm, abi) ->
      { Serve.Client.ct_name = name; ct_wasm = wasm; ct_abi = Some abi })
    contracts

let connect_retry path =
  let rec go n =
    match Serve.Client.connect path with
    | c -> c
    | exception Unix.Unix_error _ when n > 0 ->
        Unix.sleepf 0.05;
        go (n - 1)
  in
  go 100

let with_daemon cfg f =
  let t = Serve.Serve.create cfg in
  let d = Domain.spawn (fun () -> Serve.Serve.serve t) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Serve.request_stop t;
      Domain.join d)
    (fun () -> f t)

let fail fmt = Printf.ksprintf failwith fmt

(* Returns the uninterrupted and the resumed tenant report. *)
let kill_and_resume dir =
  let contracts = sample_contracts ~count:6 in
  let root = Filename.concat dir "root" in
  let socket = Filename.concat dir "s.sock" in
  let cfg = Serve.Serve.make_config ~root ~socket ~jobs:1 ~depth:16 ~engine () in
  (* phase 1 — fork the daemon, submit everything, kill -9 mid-queue.
     No domain may exist in this process before the fork. *)
  (match Unix.fork () with
   | 0 ->
       (* daemon process; _exit so the parent's at_exit (buffered
          channels) never runs twice *)
       (try Serve.Serve.serve (Serve.Serve.create cfg) with _ -> ());
       Unix._exit 0
   | pid ->
       let c = connect_retry socket in
       List.iter
         (fun (name, wasm, abi) ->
           Serve.Client.send c
             (Serve.Wire.Submit
                {
                  rq_tenant = "alice";
                  rq_name = name;
                  rq_wasm = wasm;
                  rq_abi = Some abi;
                  rq_slices = 1;
                }))
         contracts;
       let rec await_first_verdict () =
         match Serve.Client.next c with
         | Serve.Wire.Verdict _ -> ()
         | _ -> await_first_verdict ()
       in
       await_first_verdict ();
       Unix.kill pid Sys.sigkill;
       ignore (Unix.waitpid [] pid);
       Serve.Client.close c);
  let journaled =
    List.length (Serve.Serve.tenant_entries ~root ~engine "alice")
  in
  if not (journaled >= 1 && journaled < List.length contracts) then
    fail "expected a partial journal after kill -9, found %d/%d entries"
      journaled (List.length contracts);
  (* phase 2 — the surviving root is refused without --resume *)
  (match
     Serve.Serve.create
       (Serve.Serve.make_config ~root ~socket ~jobs:1 ~depth:16 ~engine ())
   with
   | _ -> fail "unresumed restart over existing journals was accepted"
   | exception Failure msg ->
       if not (contains ~sub:"--resume" msg) then
         fail "refusal does not name --resume: %s" msg);
  (* phase 3 — the uninterrupted reference run (fresh root) *)
  let ref_cfg =
    Serve.Serve.make_config
      ~root:(Filename.concat dir "root-uninterrupted")
      ~socket:(Filename.concat dir "u.sock")
      ~jobs:2 ~depth:16 ~engine ()
  in
  with_daemon ref_cfg (fun _ ->
      let c = connect_retry ref_cfg.Serve.Serve.sv_socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          ignore
            (Serve.Client.submit_batch c ~tenant:"alice"
               (client_contracts contracts))));
  let reference =
    Serve.Serve.tenant_report ~root:ref_cfg.Serve.Serve.sv_root ~engine "alice"
  in
  (* phase 4 — resume the killed root; journaled names replay cached *)
  let cfg2 =
    Serve.Serve.make_config ~root ~socket ~jobs:2 ~depth:16 ~resume:true
      ~engine ()
  in
  with_daemon cfg2 (fun _ ->
      let c = connect_retry socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let batch =
            Serve.Client.submit_batch c ~tenant:"alice"
              (client_contracts contracts)
          in
          let cached =
            List.length
              (List.filter
                 (fun (_, k, _) -> k = Serve.Wire.Cached)
                 batch.Serve.Client.bt_verdicts)
          in
          if cached <> journaled then
            fail "expected %d cached replays after resume, got %d" journaled
              cached));
  (reference, Serve.Serve.tenant_report ~root ~engine "alice")

let () =
  let reference, resumed = with_scratch "sigkill" kill_and_resume in
  if String.equal reference resumed then
    print_endline
      "test_serve_kill: OK (kill -9 + resume report byte-identical)"
  else (
    Printf.printf
      "test_serve_kill: MISMATCH\n--- uninterrupted ---\n%s--- resumed ---\n%s"
      reference resumed;
    exit 1)
