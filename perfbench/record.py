"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py [workload ...]

Runs every pool item of the named workloads (all four by default) once
through ``avrc.cli.main`` and writes ``perfbench/reference.json``, tagged with
the git commit it was recorded at.  The reference pins the program's
behaviour at that commit; a change that claims a speed-up must pass the
benchmark's checks against it, so re-recording belongs only to a change that
is allowed to alter outputs and says so.
"""

import json
import os
import shutil
import sys

import run
import workloads as wl


def record(cli, workload, workdir):
    entries = []
    for key, spec in enumerate(wl.pool(workload)):
        item = wl.make_item(workload, key, spec)
        for name, text in item.files.items():
            (workdir / name).write_text(text)
        rc, _, stdout = run.run_cli(cli, item.argv)
        if rc != 0:
            raise RuntimeError(f"{workload} item {key} exited with {rc}")
        if workload == "gaussian_sweep":
            output = wl.parse_gaussian_csv((workdir / item.out).read_text())
        elif workload == "discrete_classify":
            out = json.loads(stdout)
            output = {k: out[k] for k in wl.DISCRETE_EXACT + wl.DISCRETE_VALUES}
        else:
            output = wl.digest((workdir / item.out).read_bytes())
        entries.append({"input": wl.input_digest(item), "output": output})
        print(f"{workload} {key}: {json.dumps(output)[:100]}", flush=True)
    return entries


def dump_reference(ref):
    """JSON with one line per recorded item, so a re-recording diffs by item."""
    lines = ["{", f' "commit": {json.dumps(ref["commit"])},',
             f' "criterion_02_random_capacity": {json.dumps(ref["criterion_02_random_capacity"])},',
             ' "workloads": {']
    names = list(ref["workloads"])
    for i, name in enumerate(names):
        entries = ref["workloads"][name]
        lines.append(f"  {json.dumps(name)}: [")
        lines += [f"   {json.dumps(e)}" + ("," if j < len(entries) - 1 else "")
                  for j, e in enumerate(entries)]
        lines.append("  ]" + ("," if i < len(names) - 1 else ""))
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


def main(names):
    cli = run.import_program()
    path = run.HERE / "reference.json"
    ref = (json.loads(path.read_text()) if path.is_file()
           else {"workloads": {}})
    ref["commit"] = run.git_sha()
    ref["criterion_02_random_capacity"] = wl.CRITERION_02_VALUE
    workdir = run.ROOT / ".bench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        os.chdir(workdir)
        for workload in names or wl.WORKLOADS:
            ref["workloads"][workload] = record(cli, workload, workdir)
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(dump_reference(ref))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
