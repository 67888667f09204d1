"""The HTTP serving layer: real sockets in front of the query service.

Walks through `repro/server/`: starting the HTTP server over a
database, querying it with the stdlib socket client, streaming a large
result through bounded cursor pages, tagged vector/matrix values on the
wire, named sessions with temp views, detached jobs with polling,
structured error payloads, and the 429 + Retry-After overload contract.

Run:  python examples/http_serving.py
"""

import time

import numpy as np

from repro import Database
from repro.config import ClusterConfig
from repro.server import Server, ServerClient, ServerConfig, ServerError
from repro.service import ServiceConfig


def build_db():
    db = Database(ClusterConfig(machines=2, cores_per_machine=2, job_startup_s=1.0))
    db.execute("CREATE TABLE points (i INTEGER, vec VECTOR[])")
    db.execute("CREATE TABLE outcomes (i INTEGER, y_i DOUBLE)")
    rng = np.random.default_rng(7)
    data = rng.normal(size=(60, 5))
    beta = rng.normal(size=5)
    db.load("points", [(i, data[i]) for i in range(60)])
    db.load("outcomes", [(i, float(data[i] @ beta)) for i in range(60)])
    return db


def main():
    db = build_db()

    # -- 1. start the server, talk JSON over a real socket --------------------
    server = Server(db, service_config=ServiceConfig(default_page_size=16))
    with server:
        host, port = server.address
        print(f"server listening on http://{host}:{port}")
        client = ServerClient(host, port)
        print("health:", client.health())

        # -- 2. a query with parameters; vectors come back $type-tagged -------
        response = client.query(
            "SELECT i, vec FROM points WHERE i < :k", {"k": 3}
        )
        print(f"\n{response['row_count']} rows, columns {response['columns']}")
        print("a vector on the wire:", response["rows"][0][1])

        # -- 3. streaming: bounded pages + an opaque cursor token -------------
        response = client.query("SELECT i, y_i FROM outcomes", page_size=16)
        pages = 1
        rows = list(response["rows"])
        while not response["done"]:
            response = client.fetch(response["cursor"])
            rows.extend(response["rows"])
            pages += 1
        print(f"\nstreamed {len(rows)} rows in {pages} pages of <= 16")

        # -- 4. named sessions keep temp views across requests ----------------
        client.open_session("alice")
        client.query(
            "CREATE TEMP VIEW recent AS SELECT i, y_i FROM outcomes WHERE i >= 50",
            session="alice",
        )
        _, view_rows = client.query_all(
            "SELECT COUNT(i) FROM recent", session="alice"
        )
        print(f"\nalice's temp view sees {view_rows[0][0]} rows")
        client.close_session("alice")

        # -- 5. detached jobs: submit now, poll, stream the result ------------
        job_id = client.submit_job(
            "SELECT SUM(outer_product(vec, vec)) FROM points"
        )
        print(f"\nsubmitted job {job_id}; polling ...")
        while True:
            poll = client.poll_job(job_id)
            if poll["state"] in ("done", "error"):
                break
            time.sleep(0.01)
        print(f"job {job_id} -> {poll['state']}, columns {poll['columns']}")
        gram = client.fetch(poll["cursor"])["rows"][0][0]
        print(f"the Gram matrix came back as a {gram['$type']} "
              f"of {len(gram['data'])}x{len(gram['data'][0])}")
        client.delete_job(job_id)

        # -- 6. structured errors: code + message + HTTP status ---------------
        try:
            client.query("SELECT nope FROM points")
        except ServerError as exc:
            print(f"\nbad query -> HTTP {exc.status}, "
                  f"code={exc.code!r}: {exc}")
        client.close()

    # -- 7. overload: 429 with a Retry-After header ---------------------------
    throttled = Server(
        build_db(),
        config=ServerConfig(rate_limit_qps=0.001, rate_limit_burst=1.0),
    )
    with throttled:
        client = ServerClient(*throttled.address)
        client.query("SELECT COUNT(i) FROM points", tenant="acme")
        try:
            client.query("SELECT COUNT(i) FROM points", tenant="acme")
        except ServerError as exc:
            print(f"\nrate limited -> HTTP {exc.status}, "
                  f"Retry-After: {exc.retry_after_s:.1f}s "
                  f"(tenant {exc.payload['tenant']!r})")
        client.close()


if __name__ == "__main__":
    main()
