(* The host a result was measured on. Wall-clock figures compare only
   between results with equal stamps; deterministic figures compare
   across hosts. *)

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text -> (
      let model line =
        match String.index_opt line ':' with
        | Some i when String.starts_with ~prefix:"model name" line ->
            Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None
      in
      match List.find_map model (String.split_on_char '\n' text) with
      | Some m -> m
      | None -> "unknown")

let domains_used = 1

(* Two fixed kernels, timed in the same process beside the calls: an
   integer loop and a pointer chase through 16 MB, off the OCaml heap. On a
   shared host the speed a process gets drifts by tens of percent over
   minutes, mostly through the memory system; the kernels' times show that
   drift beside the wall-clock figures it moved. *)
let alu_ms () =
  let t0 = Pclock.now_ns () in
  let x = ref 0x2545F491 in
  for _ = 1 to 4_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  ignore (Sys.opaque_identity !x);
  float_of_int (Pclock.now_ns () - t0) /. 1e6

(* One cycle through every slot (Sattolo's shuffle), so each step misses
   the caches. *)
let chase =
  lazy
    (let n = 1 lsl 21 in
     let a = Bigarray.(Array1.create int c_layout n) in
     for i = 0 to n - 1 do
       a.{i} <- i
     done;
     let x = ref 88172645463325252 in
     for i = n - 1 downto 1 do
       x := !x lxor (!x lsl 13);
       x := !x lxor (!x lsr 7);
       x := !x lxor (!x lsl 17);
       let j = (!x land max_int) mod i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

let memory_ms () =
  let a = Lazy.force chase in
  let t0 = Pclock.now_ns () in
  let p = ref 0 in
  for _ = 1 to 250_000 do
    p := Bigarray.Array1.unsafe_get a !p
  done;
  ignore (Sys.opaque_identity !p);
  float_of_int (Pclock.now_ns () - t0) /. 1e6

let to_json () =
  Perfbench_core.Json.(
    obj
      [
        ("cpu_model", str (cpu_model ()));
        ("nproc", num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", str Sys.ocaml_version);
        ("domains", num (float_of_int domains_used));
      ])

(* VmHWM: the resident-set high-water mark of this process, in MB. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error e -> failwith ("peak RSS unavailable: " ^ e)
  | text -> (
      let hwm line =
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        else None
      in
      match List.find_map hwm (String.split_on_char '\n' text) with
      | Some mb -> mb
      | None -> failwith "peak RSS unavailable: no VmHWM line")
