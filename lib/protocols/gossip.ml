open Hpl_core
open Hpl_sim

type mode = Push | Pull | Push_pull

type params = {
  n : int;
  period : float;
  fanout : int;
  mode : mode;
  horizon : float;
  seed : int64;
}

let default =
  { n = 8; period = 5.0; fanout = 1; mode = Push; horizon = 1000.0; seed = 11L }

type outcome = {
  trace : Trace.t;
  informed_time : float option array;
  all_informed : bool;
  messages : int;
  depth2_complete_time : float option;
}

let rumor_tag = "rumor"
let pull_tag = "pull"
let tick_timer = "gossip-tick"

type state = {
  params : params;
  me : int;
  informed : bool;
  informed_at : float option;
  rng : Rng.t;
  (* matrix clock: row q, col r = my bound on how much q knows of r's
     rumor status; entry (q, r) > 0 means (to my knowledge) q knows r
     is informed. We track "informedness" rather than event counts. *)
  know : bool array array;
  depth2_at : float option;
}

let init params p =
  let me = Pid.to_int p in
  let informed = me = 0 in
  let know = Array.init params.n (fun _ -> Array.make params.n false) in
  if informed then know.(0).(0) <- true;
  let st =
    {
      params;
      me;
      informed;
      informed_at = (if informed then Some 0.0 else None);
      rng = Rng.create (Int64.add params.seed (Int64.of_int (me * 104729)));
      know;
      depth2_at = None;
    }
  in
  let ticks_from_start =
    match params.mode with Push -> informed | Pull | Push_pull -> true
  in
  let actions =
    if ticks_from_start then [ Engine.Set_timer (params.period, tick_timer) ]
    else []
  in
  (st, actions)

let encode_know st =
  (* flatten the boolean matrix into ints *)
  let bits = ref [] in
  for q = st.params.n - 1 downto 0 do
    for r = st.params.n - 1 downto 0 do
      bits := (if st.know.(q).(r) then 1 else 0) :: !bits
    done
  done;
  Wire.enc rumor_tag !bits

let depth2_complete st now =
  if st.depth2_at <> None then st
  else
    let complete =
      let ok = ref true in
      for q = 0 to st.params.n - 1 do
        for r = 0 to st.params.n - 1 do
          if not st.know.(q).(r) then ok := false
        done
      done;
      !ok
    in
    if complete then { st with depth2_at = Some now } else st

let on_message st ~self:_ ~src ~payload ~now =
  match Wire.dec payload with
  | Some (tag, []) when String.equal tag pull_tag ->
      (* answer a pull request if we have the rumor *)
      if st.informed then (st, [ Engine.Send (src, encode_know st) ]) else (st, [])
  | Some (tag, bits) when String.equal tag rumor_tag ->
      let n = st.params.n in
      if List.length bits <> n * n then (st, [])
      else begin
        let arr = Array.of_list bits in
        for q = 0 to n - 1 do
          for r = 0 to n - 1 do
            if arr.((q * n) + r) = 1 then st.know.(q).(r) <- true
          done
        done;
        let first_time = not st.informed in
        let st =
          if first_time then
            { st with informed = true; informed_at = Some now }
          else st
        in
        st.know.(st.me).(st.me) <- true;
        (* I now know everything the sender's matrix showed *)
        for r = 0 to n - 1 do
          if st.know.(r).(r) then st.know.(st.me).(r) <- true
        done;
        let st = depth2_complete st now in
        let actions =
          (* in push mode a newly informed node starts ticking *)
          if first_time && st.params.mode = Push then
            [ Engine.Set_timer (st.params.period, tick_timer) ]
          else []
        in
        (st, actions)
      end
  | _ -> (st, [])

let random_targets st =
  List.init st.params.fanout (fun _ ->
      let t = Rng.int st.rng st.params.n in
      if t = st.me then (t + 1) mod st.params.n else t)
  |> List.sort_uniq compare

let on_timer st ~self:_ ~tag ~now =
  if String.equal tag tick_timer && now <= st.params.horizon then begin
    let sends =
      match st.params.mode with
      | Push ->
          if st.informed then
            let payload = encode_know st in
            List.map (fun t -> Engine.Send (Pid.of_int t, payload)) (random_targets st)
          else []
      | Pull ->
          (* only the still-ignorant query; the tail goes quiet on its own *)
          if st.informed then []
          else
            List.map
              (fun t -> Engine.Send (Pid.of_int t, Wire.enc pull_tag []))
              (random_targets st)
      | Push_pull ->
          if st.informed then
            let payload = encode_know st in
            List.map (fun t -> Engine.Send (Pid.of_int t, payload)) (random_targets st)
          else
            List.map
              (fun t -> Engine.Send (Pid.of_int t, Wire.enc pull_tag []))
              (random_targets st)
    in
    let keep_ticking =
      match st.params.mode with
      | Push -> st.informed
      | Pull -> not st.informed
      | Push_pull -> true
    in
    ( st,
      sends
      @ if keep_ticking then [ Engine.Set_timer (st.params.period, tick_timer) ] else [] )
  end
  else (st, [])

let informed_positions ~n z =
  let pos = Array.make n None in
  pos.(0) <- Some 0;
  List.iteri
    (fun i e ->
      match e.Event.kind with
      | Event.Receive m when Wire.is rumor_tag m.Msg.payload ->
          let d = Pid.to_int e.Event.pid in
          if pos.(d) = None then pos.(d) <- Some i
      | _ -> ())
    (Trace.to_list z);
  pos

let run ?(config = Engine.default) params =
  let config =
    { config with Engine.n = params.n; max_time = params.horizon *. 2.0 }
  in
  let result =
    Engine.run config { Engine.init = init params; on_message; on_timer }
  in
  let informed_time = Array.map (fun st -> st.informed_at) result.Engine.states in
  let all_informed = Array.for_all (fun t -> t <> None) informed_time in
  let depth2_complete_time =
    Array.fold_left
      (fun acc st ->
        match (acc, st.depth2_at) with
        | Some best, Some t -> Some (min best t)
        | None, t | t, None -> t)
      None result.Engine.states
  in
  {
    trace = result.Engine.trace;
    informed_time;
    all_informed;
    messages = result.Engine.stats.Engine.sent;
    depth2_complete_time;
  }

(* -- registry ----------------------------------------------------------- *)

(* knowledge-view spec: push gossip around a ring, each process
   forwarding the rumor once — the minimal chain along which "p0 knows
   the rumor" propagates *)
let ring_spec ~n =
  if n < 2 then invalid_arg "Gossip.ring_spec: need at least two processes";
  Spec.make ~n (fun p history ->
      let i = Pid.to_int p in
      let informed = i = 0 || Protocol.recvs_of history rumor_tag > 0 in
      Spec.Recv_any
      ::
      (if informed && Protocol.sends_of history rumor_tag = 0 then
         [ Spec.Send_to (Pid.of_int ((i + 1) mod n), rumor_tag) ]
       else []))

let informed_prop ~i =
  Prop.local (Pid.of_int i) (Printf.sprintf "informed%d" i) (fun h ->
      i = 0 || Protocol.recvs_of h rumor_tag > 0)

let relay_ring vs =
  let n = Protocol.get vs "n" in
  let rec go k z =
    if k >= n - 1 then z
    else
      let src = Pid.of_int k and dst = Pid.of_int (k + 1) in
      let m = Msg.make ~src ~dst ~seq:0 ~payload:rumor_tag in
      let send_lseq = if k = 0 then 0 else 1 in
      go (k + 1)
        (Trace.append z
           [ Event.send ~pid:src ~lseq:send_lseq m;
             Event.receive ~pid:dst ~lseq:0 m ])
  in
  go 0 Trace.empty

let protocol =
  Protocol.make ~name:"gossip"
    ~doc:"push rumor around a ring; informedness spreads one hop per send"
    ~params:[ Protocol.param ~lo:2 "n" 3 "ring size (p0 starts informed)" ]
    ~atoms:(fun vs ->
      List.init (Protocol.get vs "n") (fun i ->
          (Printf.sprintf "informed%d" i, informed_prop ~i)))
    ~canonical_trace:relay_ring ~suggested_depth:6
    (fun vs -> ring_spec ~n:(Protocol.get vs "n"))
